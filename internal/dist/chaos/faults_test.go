package chaos_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"simcal/internal/dist"
	"simcal/internal/dist/chaos"
)

// dialPair connects one chaos-wrapped client to a plain (unwrapped)
// server over the in-process loopback, so each test observes exactly
// one fault injector: outbound faults act on client→server frames,
// inbound faults on server→client frames. The loopback is a
// synchronous pipe, so tests must have a receiver pending (recvAsync)
// before sending.
func dialPair(t *testing.T, prof chaos.Profile, seed int64) (ct *chaos.Transport, client, server dist.Conn) {
	t.Helper()
	lb := dist.NewLoopback()
	ct, err := chaos.New(lb, prof, seed)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := lb.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan dist.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	client, err = ct.Dial("")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case server = <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("accept timed out")
	}
	t.Cleanup(func() {
		client.Close()
		server.Close()
		ln.Close()
	})
	return ct, client, server
}

// recvResult carries one Recv outcome across a goroutine.
type recvResult struct {
	f   *dist.Frame
	err error
}

func recvAsync(conn dist.Conn) <-chan recvResult {
	ch := make(chan recvResult, 1)
	go func() {
		f, err := conn.Recv()
		ch <- recvResult{f, err}
	}()
	return ch
}

func awaitRecv(t *testing.T, ch <-chan recvResult) recvResult {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(5 * time.Second):
		t.Fatal("Recv timed out")
		return recvResult{}
	}
}

func heartbeat() *dist.Frame { return &dist.Frame{Type: dist.TypeHeartbeat} }

// TestPassThroughCleanProfile checks the zero profile is transparent in
// both directions.
func TestPassThroughCleanProfile(t *testing.T) {
	ct, client, server := dialPair(t, chaos.Profile{}, 1)
	recv := recvAsync(server)
	if err := client.Send(heartbeat()); err != nil {
		t.Fatal(err)
	}
	if r := awaitRecv(t, recv); r.err != nil || r.f.Type != dist.TypeHeartbeat {
		t.Fatalf("server Recv = %v, %v", r.f, r.err)
	}
	recv = recvAsync(client)
	if err := server.Send(heartbeat()); err != nil {
		t.Fatal(err)
	}
	if r := awaitRecv(t, recv); r.err != nil || r.f.Type != dist.TypeHeartbeat {
		t.Fatalf("client Recv = %v, %v", r.f, r.err)
	}
	if total := ct.Counts().Total(); total != 0 {
		t.Errorf("clean profile injected %d faults", total)
	}
}

// TestCorruptDetectedByChecksum checks corruption in either direction
// surfaces as a decode error — never a silently altered frame.
func TestCorruptDetectedByChecksum(t *testing.T) {
	ct, client, server := dialPair(t, chaos.Profile{CorruptRate: 1}, 1)
	recv := recvAsync(server)
	if err := client.Send(heartbeat()); err != nil {
		t.Fatal(err)
	}
	if r := awaitRecv(t, recv); r.err == nil || !strings.Contains(r.err.Error(), "checksum") {
		t.Fatalf("server Recv of corrupted frame = %v, want checksum error", r.err)
	}

	_, client2, server2 := dialPair(t, chaos.Profile{CorruptRate: 1}, 2)
	recv = recvAsync(client2)
	if err := server2.Send(heartbeat()); err != nil {
		t.Fatal(err)
	}
	if r := awaitRecv(t, recv); r.err == nil || !strings.Contains(r.err.Error(), "checksum") {
		t.Fatalf("client Recv of corrupted frame = %v, want checksum error", r.err)
	}
	if c := ct.Counts(); c.Corrupts == 0 {
		t.Errorf("counts = %v, want corrupts > 0", c)
	}
}

// TestTruncateKillsConnection checks a truncated frame errors the
// sender and desyncs the receiver into a connection error.
func TestTruncateKillsConnection(t *testing.T) {
	ct, client, server := dialPair(t, chaos.Profile{TruncateRate: 1}, 1)
	recv := recvAsync(server)
	if err := client.Send(heartbeat()); err == nil {
		t.Fatal("Send on a truncating connection succeeded")
	}
	if r := awaitRecv(t, recv); r.err == nil {
		t.Fatal("server Recv after truncation succeeded")
	}
	if c := ct.Counts(); c.Truncates == 0 {
		t.Errorf("counts = %v, want truncates > 0", c)
	}
}

// TestResetKillsConnection checks a reset cuts the connection before
// the frame escapes.
func TestResetKillsConnection(t *testing.T) {
	ct, client, server := dialPair(t, chaos.Profile{ResetRate: 1}, 1)
	recv := recvAsync(server)
	if err := client.Send(heartbeat()); err == nil {
		t.Fatal("Send on a resetting connection succeeded")
	}
	if r := awaitRecv(t, recv); r.err == nil {
		t.Fatal("server Recv after reset succeeded")
	}
	if c := ct.Counts(); c.Resets == 0 {
		t.Errorf("counts = %v, want resets > 0", c)
	}
}

// TestDelayStallsFrame checks delayed frames still arrive, late.
func TestDelayStallsFrame(t *testing.T) {
	ct, client, server := dialPair(t, chaos.Profile{DelayRate: 1, Delay: 120 * time.Millisecond}, 1)
	recv := recvAsync(server)
	start := time.Now()
	if err := client.Send(heartbeat()); err != nil {
		t.Fatal(err)
	}
	if r := awaitRecv(t, recv); r.err != nil || r.f.Type != dist.TypeHeartbeat {
		t.Fatalf("Recv = %v, %v", r.f, r.err)
	}
	if el := time.Since(start); el < 60*time.Millisecond {
		t.Errorf("delayed frame arrived after %v, want >= 60ms", el)
	}
	if c := ct.Counts(); c.Delays == 0 {
		t.Errorf("counts = %v, want delays > 0", c)
	}
}

// TestPartitionWindow checks a partition holds frames rather than
// losing them: a frame sent either way inside the window stays in the
// air while it is open, arrives once it closes, and is counted as held.
func TestPartitionWindow(t *testing.T) {
	const window = 200 * time.Millisecond
	begin := time.Now() // no later than the transport's clock starts
	prof := chaos.Profile{Partitions: []chaos.Window{{At: 0, For: window}}}
	ct, client, server := dialPair(t, prof, 1)
	toServer, toClient := recvAsync(server), recvAsync(client)
	if err := client.Send(heartbeat()); err != nil {
		t.Fatalf("Send into a partition must be accepted, got %v", err)
	}
	// Asynchronously: the loopback pipe is synchronous, and the client's
	// inbound side reads the frame only to hold it.
	sendErr := make(chan error, 1)
	go func() { sendErr <- server.Send(heartbeat()) }()
	select {
	case r := <-toServer:
		t.Fatalf("frame crossed an open partition: %v, %v", r.f, r.err)
	case r := <-toClient:
		t.Fatalf("frame crossed an open partition: %v, %v", r.f, r.err)
	case <-time.After(window / 2):
	}
	for _, recv := range []<-chan recvResult{toServer, toClient} {
		if r := awaitRecv(t, recv); r.err != nil || r.f.Type != dist.TypeHeartbeat {
			t.Fatalf("held frame: %v, %v", r.f, r.err)
		}
	}
	if el := time.Since(begin); el < window {
		t.Errorf("held frames arrived %v in, before the %v window closed", el, window)
	}
	if err := <-sendErr; err != nil {
		t.Fatal(err)
	}
	if c := ct.Counts(); c.Held != 2 || c.Total() != 2 {
		t.Errorf("counts = %v, want exactly the two frames held", c)
	}
}

// TestExactlyOnceOrClose is the contract the plane's fault model rests
// on: whatever the transport injects, each direction of a connection
// delivers every frame exactly once and in order, or the connection
// ends. Over many seeds, a profile with every fault plus a partition
// window carries n sequence-numbered frames each way; each receiver
// must see 1, 2, 3, … with no gap and no repeat, and then either frame
// n or a connection error — never a stall on a live connection.
func TestExactlyOnceOrClose(t *testing.T) {
	const n = 60
	seeds := 40
	if testing.Short() {
		seeds = 10
	}
	prof := chaos.Profile{
		DelayRate: 0.2, Delay: time.Millisecond,
		TruncateRate: 0.002, CorruptRate: 0.002, ResetRate: 0.002,
		Partitions: []chaos.Window{{At: 2 * time.Millisecond, For: 5 * time.Millisecond}},
	}
	// send stops at the first failed Send: the connection is gone.
	send := func(c dist.Conn, done chan<- struct{}) {
		defer close(done)
		for i := int64(1); i <= n; i++ {
			if c.Send(&dist.Frame{Type: dist.TypeHeartbeat, Heartbeat: &dist.HeartbeatMsg{PingUnixNS: i}}) != nil {
				return
			}
		}
	}
	// receive reports the first broken promise (or "" for none) and
	// whether all n frames arrived; a connection error ends a clean
	// prefix.
	type verdict struct {
		broken   string
		complete bool
	}
	receive := func(c dist.Conn, out chan<- verdict) {
		for want := int64(1); want <= n; want++ {
			f, err := c.Recv()
			if err != nil {
				out <- verdict{}
				return
			}
			if got := f.Heartbeat.PingUnixNS; got != want {
				out <- verdict{broken: fmt.Sprintf("frame %d arrived where %d was due", got, want)}
				return
			}
		}
		out <- verdict{complete: true}
	}
	var complete, cut, held int64
	for seed := int64(1); seed <= int64(seeds); seed++ {
		ct, client, server := dialPair(t, prof, seed)
		sent := []chan struct{}{make(chan struct{}), make(chan struct{})}
		verdicts := make(chan verdict, 2)
		go send(client, sent[0])
		go send(server, sent[1])
		go receive(server, verdicts)
		go receive(client, verdicts)
		for dir := 0; dir < 2; dir++ {
			select {
			case v := <-verdicts:
				if v.broken != "" {
					t.Fatalf("seed %d: %s", seed, v.broken)
				}
				if v.complete {
					complete++
				} else {
					cut++
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("seed %d: a receiver stalled on a live connection: a frame was lost", seed)
			}
		}
		client.Close()
		server.Close()
		<-sent[0]
		<-sent[1]
		held += ct.Counts().Held
	}
	t.Logf("%d seeds: %d directions complete, %d cut by a connection error, %d frames held", seeds, complete, cut, held)
	if complete == 0 || cut == 0 || held == 0 {
		t.Errorf("the seeds never exercised a case: %d complete, %d cut, %d held", complete, cut, held)
	}
}
