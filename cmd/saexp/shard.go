package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"schedact/internal/exp"
	"schedact/internal/fleet"
	"schedact/internal/scenario"
)

// The multi-process shard driver: saexp -scenario X -shard-exec n splits a
// mix sweep into n contiguous seed shards and re-executes itself once per
// shard (`saexp -scenario <spec> -shard i/n -checkpoint ... -results ...`),
// a bounded number of children at a time. Each child checkpoints under its
// shard-suffixed resume key, so a crashed child is simply re-run and
// resumes where its checkpoint left off; a child that exits 0 or 1 is
// complete (1 means seeds failed — a verdict, not a crash). When every
// shard has finished, the driver merges the shard checkpoints and prints
// the combined report.

// shardExecOpts carries the parent flags the driver derives child
// invocations from.
type shardExecOpts struct {
	checkpoint string // base checkpoint path ("" = temp dir)
	results    string // base JSONL results path ("" = none)
	workers    int    // raw -workers (0 = auto-divide across children)
	parallel   int    // concurrent children (0 = min(shards, CPUs))
	every      int    // -checkpoint-every passthrough
}

// shardRetries is how many times a crashed shard child is re-run (resuming
// from its checkpoint) before the driver gives up on the sweep.
const shardRetries = 2

// shardSuffix names shard i of n's derived file next to a base path.
func shardSuffix(base string, i, n int) string {
	return fmt.Sprintf("%s.shard%dof%d", base, i, n)
}

// runShardExec drives one sharded multi-process sweep; see the file
// comment. Exit codes: 0 all seeds passed, 1 some seeds failed, 2 a shard
// could not be completed or the merge was rejected.
func runShardExec(src string, n int, o shardExecOpts) int {
	sp, err := loadSpec(src)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if sp.Shard != nil {
		fmt.Fprintln(os.Stderr, "-shard-exec: the spec already names a shard; run it directly or drop spec.shard")
		return 2
	}
	// Validate the full sharded shape up front (shard 1 stands in for all:
	// only shard.index varies across children) so a child never discovers a
	// spec error three retries deep.
	if err := scenario.Validate(scenario.WithShard(sp, 1, n)); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "-shard-exec: cannot find own executable: %v\n", err)
		return 2
	}
	// Children re-read the spec from a canonical temp file, so stdin specs
	// and builtins take the same path as spec files.
	dir, err := os.MkdirTemp("", "saexp-shards-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer os.RemoveAll(dir)
	specPath := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(specPath, scenario.Marshal(sp), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	ckptBase := o.checkpoint
	if ckptBase == "" {
		ckptBase = filepath.Join(dir, "sweep.json")
	}

	bound := o.parallel
	if bound <= 0 {
		bound = min(n, runtime.NumCPU())
	}
	bound = min(bound, n)
	// Fleet-level and per-child parallelism multiply: divide the host
	// unless the caller pinned -workers explicitly.
	childWorkers := o.workers
	if childWorkers <= 0 {
		childWorkers = max(1, fleet.DefaultWorkers()/bound)
	}
	every := o.every
	if every == 0 {
		every = 4 // shard children checkpoint often: a kill loses little
	}

	type verdict struct {
		code     int // final exit code (0 ok, 1 seeds failed, else crash)
		attempts int
	}
	ckpts := make([]string, n)
	fmt.Printf("shard-exec: %d shard(s) of %s, %d process(es) at a time, %d worker(s) per child\n",
		n, sp.Name, bound, childWorkers)
	gaveUp := false
	fleet.Run(bound, n, func(job, worker int) verdict {
		i := job + 1
		ckpt := shardSuffix(ckptBase, i, n)
		ckpts[job] = ckpt
		args := []string{
			"-scenario", specPath,
			"-shard", fmt.Sprintf("%d/%d", i, n),
			"-checkpoint", ckpt,
			"-checkpoint-every", fmt.Sprint(every),
			"-workers", fmt.Sprint(childWorkers),
		}
		if o.results != "" {
			args = append(args, "-results", shardSuffix(o.results, i, n))
		}
		v := verdict{}
		for v.attempts = 1; v.attempts <= 1+shardRetries; v.attempts++ {
			cmd := exec.Command(self, args...)
			log, err := os.Create(shardSuffix(filepath.Join(dir, "log"), i, n))
			if err == nil {
				cmd.Stdout, cmd.Stderr = log, log
			}
			runErr := cmd.Run()
			if log != nil {
				log.Close()
			}
			v.code = cmd.ProcessState.ExitCode()
			if runErr == nil || v.code == 0 || v.code == 1 {
				return v // complete: 0 = passed, 1 = seeds failed (a verdict)
			}
			// Anything else — a panic (2), a signal (-1) — is a crash; the
			// re-run resumes from the shard checkpoint.
		}
		v.attempts--
		return v
	}, func(res fleet.Result[verdict]) {
		i := res.Job + 1
		v := res.Value
		switch v.code {
		case 0, 1:
			status := "done"
			if v.code == 1 {
				status = "done, seeds FAILED"
			}
			retry := ""
			if v.attempts > 1 {
				retry = fmt.Sprintf(" (resumed after %d crash(es))", v.attempts-1)
			}
			fmt.Printf("  shard %d/%d: %s%s\n", i, n, status, retry)
		default:
			gaveUp = true
			fmt.Printf("  shard %d/%d: gave up after %d attempt(s), last exit %d — see %s\n",
				i, n, v.attempts, v.code, shardSuffix(filepath.Join(dir, "log"), i, n))
			dumpTail(shardSuffix(filepath.Join(dir, "log"), i, n))
		}
	})
	if gaveUp {
		return 2
	}
	m, err := exp.MergeShardFiles(os.Stdout, ckpts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if m.Failed > 0 {
		return 1
	}
	return 0
}

// dumpTail prints the last few lines of a crashed shard's log so the
// failure is visible without digging the temp dir up before it is removed.
func dumpTail(path string) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) > 10 {
		lines = lines[len(lines)-10:]
	}
	for _, l := range lines {
		fmt.Printf("    | %s\n", l)
	}
}

// runMerge folds finished shard checkpoint files into one report: the
// -merge subcommand. Exit codes mirror a sweep run: 0 all merged seeds
// passed, 1 some failed, 2 the merge was rejected (incomplete, gapped,
// overlapping, or foreign shards).
func runMerge(paths []string) int {
	if len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "-merge: list the shard checkpoint files to merge")
		return 2
	}
	m, err := exp.MergeShardFiles(os.Stdout, paths)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	fmt.Printf("merged %d shard(s): spec key %s, merged fingerprint %016x\n", m.Shards, m.BaseKey, m.Fleet)
	if m.Failed > 0 {
		return 1
	}
	return 0
}
