package main

import (
	"fmt"
	"strings"
	"testing"
)

// TestCheckFlags pins which explicitly set flags each mode accepts: a flag
// the selected mode would ignore is an error naming the flag, never a
// silent no-op.
func TestCheckFlags(t *testing.T) {
	cases := []struct {
		name  string
		set   []string
		mode  string
		which string
		bad   string // offending flag in the error, "" = accepted
	}{
		{"chaos sweep flags", []string{"chaos", "seeds", "first", "workers"}, modeChaos, "all", ""},
		{"chaos first-seed alias", []string{"chaos", "first-seed"}, modeChaos, "all", ""},
		{"chaos ablation", []string{"chaos", "ablate"}, modeChaos, "all", ""},
		{"scenario with seeds", []string{"scenario", "seeds"}, modeScenario, "all", "-seeds"},
		{"scenario with first-seed", []string{"scenario", "first-seed"}, modeScenario, "all", "-first-seed"},
		{"scenario with ablate", []string{"scenario", "ablate"}, modeScenario, "all", "-ablate"},
		{"scenario sweep flags", []string{"scenario", "workers"}, modeScenario, "all", ""},
		{"exp with ablate", []string{"exp", "ablate"}, modeExp, "table1", "-ablate"},
		{"csv on fig1", []string{"exp", "csv"}, modeExp, "fig1", ""},
		{"csv on fig2", []string{"exp", "csv"}, modeExp, "fig2", ""},
		{"csv on table1", []string{"exp", "csv"}, modeExp, "table1", "-csv"},
		{"csv on all", []string{"csv"}, modeExp, "all", "-csv"},
		{"csv with chaos", []string{"chaos", "csv"}, modeChaos, "all", "-csv"},
		{"csv with trace-out", []string{"trace-out", "exp", "csv"}, modeTraceOut, "fig1", "-csv"},
		{"list alone", []string{"list"}, modeList, "all", ""},
		{"exp with stats and workers", []string{"exp", "stats", "workers"}, modeExp, "fig2", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			set := map[string]bool{}
			for _, f := range tc.set {
				set[f] = true
			}
			err := checkFlags(set, tc.mode, tc.which, nil)
			switch {
			case tc.bad == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.bad != "" && err == nil:
				t.Fatalf("accepted; want %s rejected", tc.bad)
			case tc.bad != "" && !strings.HasPrefix(err.Error(), tc.bad+" "):
				t.Fatalf("error %q does not lead with %s", err, tc.bad)
			}
		})
	}
}

// TestCheckFlagsRejectsPositionalArgs: no mode reads a positional argument,
// so one is an error in every mode — and a spec path given without
// -scenario gets pointed at the flag instead of silently running -exp all.
func TestCheckFlagsRejectsPositionalArgs(t *testing.T) {
	cases := []struct {
		name string
		set  []string
		mode string
		args []string
		hint string // text the error must contain besides the argument
	}{
		{"spec path without -scenario", nil, modeExp, []string{"my.json"}, "use -scenario my.json"},
		{"list with extra argument", []string{"list"}, modeList, []string{"extra"}, ""},
		{"chaos with trailing seed count", []string{"chaos"}, modeChaos, []string{"64"}, ""},
		{"scenario with a second spec", []string{"scenario"}, modeScenario, []string{"a.json", "b.json"}, "use -scenario a.json"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			set := map[string]bool{}
			for _, f := range tc.set {
				set[f] = true
			}
			err := checkFlags(set, tc.mode, "all", tc.args)
			if err == nil {
				t.Fatalf("accepted positional %q", tc.args)
			}
			if want := fmt.Sprintf("unexpected argument %q ", tc.args[0]); !strings.HasPrefix(err.Error(), want) {
				t.Fatalf("error %q does not lead with %s", err, want)
			}
			if !strings.Contains(err.Error(), tc.hint) {
				t.Fatalf("error %q does not mention %q", err, tc.hint)
			}
		})
	}
}
