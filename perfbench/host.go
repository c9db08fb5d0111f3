package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// hostFacts identifies where and from what a report was measured.
type hostFacts struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	// Commit is the VCS revision stamped into the build, or "unknown"
	// when the benchmark was built outside a git checkout.
	Commit string `json:"commit"`
	// Source is an FNV-1a digest of the simulator's Go sources, which
	// identifies the measured code even where no commit is known.
	Source string `json:"source"`
}

func (h hostFacts) String() string {
	return fmt.Sprintf("cpu %q nproc %d GOMAXPROCS %d %s commit %s source %s",
		h.CPU, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit, h.Source)
}

// differs names the host facts that differ between two reports ("" when
// the hosts match). The commit and source digest are not host facts: two
// versions of the program on one host compare fine.
func (h hostFacts) differs(o hostFacts) string {
	var d []string
	if h.CPU != o.CPU {
		d = append(d, fmt.Sprintf("cpu %q vs %q", h.CPU, o.CPU))
	}
	if h.NProc != o.NProc {
		d = append(d, fmt.Sprintf("nproc %d vs %d", h.NProc, o.NProc))
	}
	if h.GOMAXPROCS != o.GOMAXPROCS {
		d = append(d, fmt.Sprintf("GOMAXPROCS %d vs %d", h.GOMAXPROCS, o.GOMAXPROCS))
	}
	if h.GoVersion != o.GoVersion {
		d = append(d, fmt.Sprintf("go %s vs %s", h.GoVersion, o.GoVersion))
	}
	return strings.Join(d, ", ")
}

// gatherHost collects the facts for this process.
func gatherHost() hostFacts {
	h := hostFacts{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Source:     sourceDigest("."),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			h.Commit = rev
			if dirty {
				h.Commit += "+dirty"
			}
		}
	}
	return h
}

// cpuModel reads the first processor's model name, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the simulator's sources under root — go.mod and
// every Go file in internal/ — in path order. It returns "unknown" when the
// tree cannot be read.
func sourceDigest(root string) string {
	paths := []string{filepath.Join(root, "go.mod")}
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
			paths = append(paths, p)
		}
		return err
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(paths)
	h := fnv.New64a()
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(p), len(raw))
		h.Write(raw)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
