package main

import (
	"flag"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// parentFlags is simcald's flag set at the commit before cmd/ was
// rebuilt on internal/cli (7f8c30e), name → default.
var parentFlags = map[string]string{
	"async-inflight": "0", "cache": "true", "checkpoint-every": "25", "degraded-grace": "0s",
	"dist-workers": "1", "http": "localhost:8080", "lease-resend": "0s", "listen": "",
	"max-requeues": "0", "max-running": "2", "state-dir": "", "tenant-quota": "8",
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
