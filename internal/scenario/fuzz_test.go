package scenario

import "testing"

// FuzzSpecParse feeds arbitrary bytes through the whole external-input path
// — Parse, Validate, Compile — and checks the properties a spec author (and
// saexp -scenario) relies on:
//
//   - no input panics, however malformed;
//   - every spec that validates compiles;
//   - a mix spec compiles to exactly faults.seeds jobs, seeds
//     first_seed..first_seed+seeds-1 in order, none negative (the seed
//     range cannot wrap past int64);
//   - Hash is unchanged under Marshal→Parse, so a spec file written back
//     out keeps its identity.
//
// The corpus is every built-in plus the spec make scenarios smokes through
// saexp -scenario on stdin.
func FuzzSpecParse(f *testing.F) {
	for _, s := range Builtins() {
		f.Add(Marshal(s))
	}
	f.Add([]byte(`{"name":"ci-smoke","workload":{"kind":"nbody","nbody":{"n":16,"steps":2}},"machine":{"cpus":2},"binding":{"systems":["new-ft"],"procs":[1,2]}}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := Parse(raw)
		if err != nil {
			return
		}
		back, err := Parse(Marshal(s))
		if err != nil {
			t.Fatalf("Marshal output does not parse: %v\n%s", err, Marshal(s))
		}
		if Hash(back) != Hash(s) {
			t.Fatalf("Hash moved under Marshal→Parse: %016x -> %016x\n%s", Hash(s), Hash(back), Marshal(s))
		}
		if Validate(s) != nil {
			return
		}
		p, err := Compile(s)
		if err != nil {
			t.Fatalf("valid spec failed to compile: %v\n%s", err, Marshal(s))
		}
		if s.Workload.Kind != KindMix {
			return
		}
		if int64(len(p.Jobs)) != s.Faults.Seeds {
			t.Fatalf("mix spec compiled to %d jobs, faults.seeds = %d", len(p.Jobs), s.Faults.Seeds)
		}
		for i, j := range p.Jobs {
			if j.Seed != s.Faults.FirstSeed+int64(i) || j.Seed < 0 {
				t.Fatalf("job %d runs seed %d, want first_seed+%d = %d", i, j.Seed, i, s.Faults.FirstSeed+int64(i))
			}
		}
	})
}
