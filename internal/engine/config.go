package engine

import (
	"errors"
	"fmt"
	"runtime"

	"daginsched/internal/dag"
)

// ErrConfig is the sentinel every constructor-time validation failure
// wraps: errors.Is(err, ErrConfig) distinguishes "the Config was
// nonsense" from runtime failures.
var ErrConfig = errors.New("invalid engine config")

// ConfigError is the structured form of a rejected Config: which field
// was bad, the offending value, and why. It unwraps to ErrConfig.
type ConfigError struct {
	Field  string // Config field name
	Value  any    // the rejected value
	Reason string // what was wrong with it
}

// Error implements error.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("engine: Config.%s = %v: %s", e.Field, e.Value, e.Reason)
}

// Unwrap makes every ConfigError match errors.Is(err, ErrConfig).
func (e *ConfigError) Unwrap() error { return ErrConfig }

// validate normalizes cfg in place — filling defaults and clamping
// where a sane reading exists — and rejects the rest with a
// *ConfigError. The rules per field:
//
//   - Model: required.
//   - Builder: "" defaults to "tableb"; anything but tableb/tablef is
//     rejected.
//   - Workers: 0 means GOMAXPROCS (filled in here); negative is
//     rejected rather than silently treated as a default.
//   - CacheCap/Crossover: 0 means "default/calibrate"; a negative
//     CacheCap is rejected (a negative Crossover is a documented "never
//     route to n²" setting and stays legal); Crossover above
//     dag.N2MaskCap is clamped to it.
//   - CachePath: implies Cache; rejected combined with
//     CollectDAGStats (the disk tier stores no DAG statistics, so a
//     disk-served block could not fill its DAGStats slot).
//   - CacheReadOnly: requires CachePath.
//   - BlockTimeout: negative is rejected; 0 disables deadlines.
//   - StreamDepth: negative is rejected; 0 means the 256-block default.
//   - FaultPlan: rates must lie in [0, 1] and SlowDelay must be
//     non-negative (see fault.Plan.Validate).
func (cfg *Config) validate() error {
	if cfg.Model == nil {
		return &ConfigError{Field: "Model", Value: nil, Reason: "a machine model is required"}
	}
	switch cfg.Builder {
	case "":
		cfg.Builder = "tableb"
	case "tableb", "tablef":
	default:
		return &ConfigError{Field: "Builder", Value: cfg.Builder, Reason: "unknown builder (want tableb or tablef)"}
	}
	if cfg.Workers < 0 {
		return &ConfigError{Field: "Workers", Value: cfg.Workers, Reason: "negative worker count (0 means GOMAXPROCS)"}
	}
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.CacheCap < 0 {
		return &ConfigError{Field: "CacheCap", Value: cfg.CacheCap, Reason: "negative cache capacity (0 means the default)"}
	}
	if cfg.Crossover > dag.N2MaskCap {
		cfg.Crossover = dag.N2MaskCap
	}
	if cfg.CacheReadOnly && cfg.CachePath == "" {
		return &ConfigError{Field: "CacheReadOnly", Value: true, Reason: "requires CachePath (there is no file to open read-only)"}
	}
	if cfg.CachePath != "" {
		if cfg.CollectDAGStats {
			return &ConfigError{Field: "CachePath", Value: cfg.CachePath, Reason: "incompatible with CollectDAGStats (the persistent tier stores no DAG statistics)"}
		}
		cfg.Cache = true
	}
	if cfg.BlockTimeout < 0 {
		return &ConfigError{Field: "BlockTimeout", Value: cfg.BlockTimeout, Reason: "negative soft deadline (0 disables deadlines)"}
	}
	if cfg.StreamDepth < 0 {
		return &ConfigError{Field: "StreamDepth", Value: cfg.StreamDepth, Reason: "negative stream queue depth (0 means the default)"}
	}
	if cfg.StreamDepth == 0 {
		cfg.StreamDepth = defaultStreamDepth
	}
	if err := cfg.FaultPlan.Validate(); err != nil {
		return &ConfigError{Field: "FaultPlan", Value: cfg.FaultPlan, Reason: err.Error()}
	}
	return nil
}
