package main

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// envInfo is the machine and code a result was measured on; every
// result line is preceded by it and every span file carries it.
type envInfo struct {
	Workload     string  `json:"workload"`
	Seed         uint64  `json:"seed"`
	Seconds      float64 `json:"seconds"`
	Trace        bool    `json:"trace"`
	RunID        string  `json:"run_id"`
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	OSArch       string  `json:"os_arch"`
	CPU          string  `json:"cpu"`
	Commit       string  `json:"commit"`
	SourceDigest string  `json:"source_digest"`
	Crossover    int     `json:"crossover"`
	Digest       string  `json:"schedule_digest,omitempty"`
}

// newEnv records everything known before the workload runs; the
// calibrated crossover and the schedule digest are filled in later.
func newEnv(root, workload string, seed uint64, seconds float64, traced bool) envInfo {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return envInfo{
		Workload:     workload,
		Seed:         seed,
		Seconds:      seconds,
		Trace:        traced,
		RunID:        newRunID(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		OSArch:       runtime.GOOS + "/" + runtime.GOARCH,
		CPU:          cpuModel(),
		Commit:       commit,
		SourceDigest: sourceDigest(root),
	}
}

// newRunID is the identifier every span of one run shares.
func newRunID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "run"
	}
	return hex.EncodeToString(b[:])
}

// cpuModel reads the processor name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest identifies the code under test when the checkout is
// not a git work tree: an FNV-64a hash over the paths and contents of
// every .go file and go.mod below root, hidden directories excluded.
func sourceDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	slices.Sort(files)
	h := fnv.New64a()
	for _, p := range files {
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel)
		f, err := os.Open(p)
		if err != nil {
			return "unknown"
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unknown"
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
