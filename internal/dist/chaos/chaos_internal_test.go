package chaos

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestDecideDeterministic pins the schedule contract: fault decisions
// are a pure function of (seed, conn, direction, sequence), so two
// transports with the same seed agree everywhere and a different seed
// diverges.
func TestDecideDeterministic(t *testing.T) {
	prof := Profile{DelayRate: 0.3, TruncateRate: 0.1, CorruptRate: 0.1, ResetRate: 0.1}
	a, err := New(nil, prof, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := New(nil, prof, 42)
	other, _ := New(nil, prof, 43)
	diverged := false
	seen := make(map[int]bool)
	for conn := uint64(1); conn <= 3; conn++ {
		for _, dir := range []uint64{dirOut, dirIn} {
			for seq := uint64(1); seq <= 500; seq++ {
				actA, wordA := a.decide(conn, dir, seq)
				actB, wordB := b.decide(conn, dir, seq)
				if actA != actB || wordA != wordB {
					t.Fatalf("same seed diverged at conn=%d dir=%d seq=%d: (%d,%x) vs (%d,%x)",
						conn, dir, seq, actA, wordA, actB, wordB)
				}
				if actO, _ := other.decide(conn, dir, seq); actO != actA {
					diverged = true
				}
				seen[actA] = true
			}
		}
	}
	if !diverged {
		t.Error("seeds 42 and 43 produced identical schedules")
	}
	for _, act := range []int{actNone, actDelay, actTruncate, actCorrupt, actReset} {
		if !seen[act] {
			t.Errorf("action %d never drawn across 3000 frames", act)
		}
	}
}

// TestCorruptPayloadOnly pins the frame-alignment contract: corruption
// flips exactly one byte, always in the payload, never in the header.
func TestCorruptPayloadOnly(t *testing.T) {
	frame := make([]byte, 9+32)
	for i := range frame {
		frame[i] = byte(i * 7)
	}
	for word := uint64(0); word < 500; word++ {
		cp := corrupt(frame, word)
		if !bytes.Equal(cp[:9], frame[:9]) {
			t.Fatalf("word %d: header mutated", word)
		}
		diffs := 0
		for i := 9; i < len(frame); i++ {
			if cp[i] != frame[i] {
				diffs++
			}
		}
		if diffs != 1 {
			t.Fatalf("word %d: %d payload bytes flipped, want 1", word, diffs)
		}
	}
	// A header-only frame (empty payload) must pass through unmutated.
	hdr := corrupt(frame[:9], 7)
	if !bytes.Equal(hdr, frame[:9]) {
		t.Error("empty-payload frame mutated")
	}
}

// TestParseProfile covers the -chaos-profile flag syntax.
func TestParseProfile(t *testing.T) {
	p, err := ParseProfile("delay=0.1:20ms,truncate=0.01,corrupt=0.01,reset=0.005,partition=2s+500ms,partition=5s+1s")
	if err != nil {
		t.Fatal(err)
	}
	want := Profile{
		DelayRate: 0.1, Delay: 20 * time.Millisecond,
		TruncateRate: 0.01, CorruptRate: 0.01, ResetRate: 0.005,
		Partitions: []Window{
			{At: 2 * time.Second, For: 500 * time.Millisecond},
			{At: 5 * time.Second, For: time.Second},
		},
	}
	if p.DelayRate != want.DelayRate || p.Delay != want.Delay || p.TruncateRate != want.TruncateRate ||
		p.CorruptRate != want.CorruptRate || p.ResetRate != want.ResetRate {
		t.Errorf("parsed %+v, want %+v", p, want)
	}
	if len(p.Partitions) != 2 || p.Partitions[0] != want.Partitions[0] || p.Partitions[1] != want.Partitions[1] {
		t.Errorf("partitions %+v, want %+v", p.Partitions, want.Partitions)
	}

	if p, err := ParseProfile("  "); err != nil || p.DelayRate != 0 || p.ResetRate != 0 || len(p.Partitions) != 0 {
		t.Errorf("empty profile: %+v, %v", p, err)
	}
	if p, err := ParseProfile("delay=0.2"); err != nil || p.DelayRate != 0.2 || p.Delay != 0 {
		// The default duration is applied by New, not the parser.
		t.Errorf("bare delay: %+v, %v", p, err)
	}

	for _, bad := range []string{
		"bogus",                 // not key=value
		"frob=1",                // unknown key
		"reset=x",               // unparsable rate
		"reset=2",               // rate out of range
		"reset=-0.1",            // negative rate
		"delay=0.6,corrupt=0.6", // rates sum past 1
		"delay=0.1:xyz",         // bad duration
		"partition=2s",          // missing +for
		"partition=2s+-1ms",     // non-positive window
		"partition=x+1s",        // bad start
	} {
		if _, err := ParseProfile(bad); err == nil {
			t.Errorf("ParseProfile(%q) succeeded, want error", bad)
		}
	}
	// The deleted faults' keys are unknown: no transport loses a frame,
	// or delivers one twice, on a live connection.
	for _, key := range []string{"drop", "dup"} {
		if _, err := ParseProfile(key + "=0.1"); err == nil || !strings.Contains(err.Error(), "unknown profile key") {
			t.Errorf("ParseProfile(%s=0.1) = %v, want an unknown-key error", key, err)
		}
	}
}

// TestNewValidatesAndDefaults pins New's profile handling.
func TestNewValidatesAndDefaults(t *testing.T) {
	if _, err := New(nil, Profile{ResetRate: -1}, 1); err == nil {
		t.Error("New accepted a negative rate")
	}
	tr, err := New(nil, Profile{DelayRate: 0.5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tr.prof.Delay != DefaultDelay {
		t.Errorf("delay defaulted to %v, want %v", tr.prof.Delay, DefaultDelay)
	}
}

// TestCountsString smoke-tests the log rendering.
func TestCountsString(t *testing.T) {
	c := Counts{Delays: 1, Resets: 2, Held: 3}
	if c.Total() != 6 {
		t.Errorf("Total = %d, want 6", c.Total())
	}
	if s := c.String(); s == "" {
		t.Error("empty Counts.String()")
	}
}
