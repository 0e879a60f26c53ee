package chaos

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// DefaultDelay is the injected latency when a profile enables delays
// without naming a duration.
const DefaultDelay = 10 * time.Millisecond

// Profile sets per-frame fault probabilities, applied independently to
// each direction of every connection. Rates are cumulative thresholds
// on one uniform draw per frame (the same scheme internal/faultsim
// uses for simulator faults), so rates must sum to at most 1. The zero
// Profile injects nothing.
type Profile struct {
	// DelayRate stalls the frame for Delay before forwarding it.
	DelayRate float64
	// Delay is the injected latency for delayed frames; <= 0 means
	// DefaultDelay.
	Delay time.Duration
	// TruncateRate forwards a prefix of the frame and cuts the
	// connection — a mid-frame connection loss.
	TruncateRate float64
	// CorruptRate flips payload bytes (the header stays intact, so the
	// stream stays frame-aligned). The frame CRC makes this a detected
	// decode error on the receiver, which kills the connection.
	CorruptRate float64
	// ResetRate cuts the connection before the frame is forwarded.
	ResetRate float64
	// Partitions are timed network partitions relative to the
	// transport's creation: every frame written or received on any
	// connection while one is open — and a connection's end of stream —
	// is held and delivered, in order, when it closes, unless the
	// connection is closed first. New dials still complete at the TCP
	// level, but their hello frames wait too: one that outlasts
	// HeartbeatTimeout ends in eviction, requeue and session resume,
	// which is how a real partition plays out.
	Partitions []Window
}

// Window is one timed partition.
type Window struct {
	// At is the partition's start, relative to transport creation.
	At time.Duration
	// For is how long it lasts.
	For time.Duration
}

// validate checks rates and windows; called by New.
func (p Profile) validate() error {
	rates := []struct {
		name string
		v    float64
	}{
		{"delay", p.DelayRate}, {"truncate", p.TruncateRate}, {"corrupt", p.CorruptRate}, {"reset", p.ResetRate},
	}
	sum := 0.0
	for _, r := range rates {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("chaos: %s rate %v outside [0, 1]", r.name, r.v)
		}
		sum += r.v
	}
	if sum > 1 {
		return fmt.Errorf("chaos: fault rates sum to %v (> 1)", sum)
	}
	for i, w := range p.Partitions {
		if w.At < 0 || w.For <= 0 {
			return fmt.Errorf("chaos: partition %d window %+v invalid (need At >= 0, For > 0)", i, w)
		}
	}
	return nil
}

// ParseProfile parses the -chaos-profile flag syntax: comma-separated
// key=value terms, e.g.
//
//	delay=0.1:20ms,truncate=0.01,corrupt=0.01,reset=0.005,partition=2s+500ms
//
// delay takes an optional :duration; partition takes at+for and may
// repeat. An empty string is the zero (fault-free) profile.
func ParseProfile(s string) (Profile, error) {
	var p Profile
	s = strings.TrimSpace(s)
	if s == "" {
		return p, nil
	}
	for _, term := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(term), "=")
		if !ok {
			return p, fmt.Errorf("chaos: profile term %q is not key=value", term)
		}
		rate := func(v string) (float64, error) {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return 0, fmt.Errorf("chaos: %s rate %q: %w", key, v, err)
			}
			return f, nil
		}
		var err error
		switch key {
		case "delay":
			r, d, hasDur := strings.Cut(val, ":")
			if p.DelayRate, err = rate(r); err == nil && hasDur {
				if p.Delay, err = time.ParseDuration(d); err != nil {
					err = fmt.Errorf("chaos: delay duration %q: %w", d, err)
				}
			}
		case "truncate":
			p.TruncateRate, err = rate(val)
		case "corrupt":
			p.CorruptRate, err = rate(val)
		case "reset":
			p.ResetRate, err = rate(val)
		case "partition":
			at, dur, hasFor := strings.Cut(val, "+")
			if !hasFor {
				return p, fmt.Errorf("chaos: partition %q is not at+for", val)
			}
			var w Window
			if w.At, err = time.ParseDuration(at); err == nil {
				w.For, err = time.ParseDuration(dur)
			}
			if err != nil {
				return p, fmt.Errorf("chaos: partition %q: %w", val, err)
			}
			p.Partitions = append(p.Partitions, w)
		default:
			return p, fmt.Errorf("chaos: unknown profile key %q", key)
		}
		if err != nil {
			return p, err
		}
	}
	if err := p.validate(); err != nil {
		return p, err
	}
	return p, nil
}

// Counts is a snapshot of injected faults, for logs and assertions
// that a chaos run actually exercised its schedule.
type Counts struct {
	Delays    int64
	Truncates int64
	Corrupts  int64
	Resets    int64
	Held      int64 // frames held by partition windows
}

// Total sums all injected faults.
func (c Counts) Total() int64 {
	return c.Delays + c.Truncates + c.Corrupts + c.Resets + c.Held
}

// String renders the snapshot for logs.
func (c Counts) String() string {
	return fmt.Sprintf("delays=%d truncates=%d corrupts=%d resets=%d held=%d",
		c.Delays, c.Truncates, c.Corrupts, c.Resets, c.Held)
}
