package batch

import "testing"

func TestGenerateWorkloadShape(t *testing.T) {
	spec := WorkloadSpec{Jobs: 200, Procs: 64, ArrivalRate: 0.1, Seed: 1}
	jobs := GenerateWorkload(spec)
	if len(jobs) != 200 {
		t.Fatalf("jobs = %d, want 200", len(jobs))
	}
	prevSubmit := -1.0
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			t.Fatalf("invalid job: %v", err)
		}
		if j.Procs > spec.Procs {
			t.Fatalf("job %d oversized", j.ID)
		}
		if j.Submit < prevSubmit {
			t.Fatal("submits not monotone")
		}
		prevSubmit = j.Submit
	}
	if TotalWork(jobs) <= 0 {
		t.Error("non-positive total work")
	}
}

func TestGenerateWorkloadDeterministic(t *testing.T) {
	spec := WorkloadSpec{Jobs: 50, Procs: 32, ArrivalRate: 0.05, Seed: 7}
	a, b := GenerateWorkload(spec), GenerateWorkload(spec)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic workload")
		}
	}
	spec.Seed = 8
	c := GenerateWorkload(spec)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds gave identical workloads")
	}
}

func TestGenerateWorkloadPanicsOnBadSpec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad spec accepted")
		}
	}()
	GenerateWorkload(WorkloadSpec{Jobs: 0, Procs: 4, ArrivalRate: 1})
}

func TestVersionsAndSpaces(t *testing.T) {
	vs := AllVersions()
	if len(vs) != 4 {
		t.Fatalf("versions = %d, want 4", len(vs))
	}
	if ReferenceVersion.Space().Dim() != 3 {
		t.Errorf("reference space dims = %d, want 3", ReferenceVersion.Space().Dim())
	}
	if (Version{FCFS, NoOverheads}).Space().Dim() != 1 {
		t.Error("no-overheads space should have 1 dim")
	}
	for _, v := range vs {
		if err := v.Space().Validate(); err != nil {
			t.Errorf("%s: %v", v.Name(), err)
		}
		pt := TruthPoint(v)
		u := v.Space().Encode(pt)
		for i, s := range v.Space() {
			if u[i] < 0 || u[i] > 1 {
				t.Errorf("%s: truth outside range for %s", v.Name(), s.Name)
			}
		}
	}
	if (Version{EASY, WithOverheads}).Name() != "easy/with-overheads" {
		t.Error("Name wrong")
	}
}
