package main

import (
	"flag"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// parentFlags is simcald's flag set at the commit before cmd/ was
// rebuilt on internal/cli (7f8c30e), name → default, minus three knobs
// nothing set: async-bo's in-flight cap (a job that wants N evaluations
// in flight sends workers: N), and the coordinator's requeue cap and
// degradation grace (both run at their defaults); and minus lease
// redelivery, deleted with the chaos faults that alone needed it.
// DeepEqual also means no binary may gain a flag.
var parentFlags = map[string]string{
	"cache": "true", "checkpoint-every": "25",
	"dist-workers": "1", "http": "localhost:8080", "listen": "",
	"max-running": "2", "state-dir": "", "tenant-quota": "8",
}

func TestFlagsMatchParent(t *testing.T) {
	got := map[string]string{}
	new(config).flagSet().VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	if !reflect.DeepEqual(got, parentFlags) {
		t.Errorf("flags (name → default)\n got %v\nwant %v", got, parentFlags)
	}
}

func TestREADMEMentionsEveryFlag(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	new(config).flagSet().VisitAll(func(f *flag.Flag) {
		if !regexp.MustCompile("(^|[^a-z-])-" + f.Name + "([^a-z-]|$)").Match(readme) {
			t.Errorf("README.md does not mention -%s", f.Name)
		}
	})
}
