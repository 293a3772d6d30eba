package engine

import (
	"errors"
	"fmt"
	"runtime"
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
//   - Workers: 0 means GOMAXPROCS (filled in here); negative is
//     rejected rather than silently treated as a default.
//   - CacheCap: 0 means the default, a 65536-entry cache; negative is
//     rejected.
//   - KeepOrders, Crossover: deprecated and ignored, so any value is
//     accepted.
//   - CachePath: implies Cache.
//   - BlockTimeout: negative is rejected; 0 disables deadlines.
//   - FaultPlan: rates must lie in [0, 1] and SlowDelay must be
//     non-negative (see fault.Plan.Validate).
func (cfg *Config) validate() error {
	if cfg.Model == nil {
		return &ConfigError{Field: "Model", Value: nil, Reason: "a machine model is required"}
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
	if cfg.CachePath != "" {
		cfg.Cache = true
	}
	if cfg.BlockTimeout < 0 {
		return &ConfigError{Field: "BlockTimeout", Value: cfg.BlockTimeout, Reason: "negative soft deadline (0 disables deadlines)"}
	}
	if err := cfg.FaultPlan.Validate(); err != nil {
		return &ConfigError{Field: "FaultPlan", Value: cfg.FaultPlan, Reason: err.Error()}
	}
	return nil
}
