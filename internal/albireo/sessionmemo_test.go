package albireo_test

import (
	"reflect"
	"testing"

	"photoloop/internal/albireo"
	"photoloop/internal/mapper"
	"photoloop/internal/workload"
)

// TestRepeatEvalNetworkBuildsNoSessions: a network evaluation builds one
// architecture and mapper session per distinct layer configuration (one
// unfused; three fused, for the first, middle and last layers), and a
// repeat evaluation builds none and returns the same result.
func TestRepeatEvalNetworkBuildsNoSessions(t *testing.T) {
	cfg := albireo.Default(albireo.Conservative)
	net := workload.ResNet18(1)
	for _, tc := range []struct {
		fused bool
		want  int64
	}{{false, 1}, {true, 3}} {
		albireo.ResetSessionMemo()
		opts := albireo.NetOptions{Batch: 2, Fused: tc.fused,
			Mapper: mapper.Options{Budget: 30, Seed: 1, Workers: 1, Cache: mapper.NewCache()}}
		stop := albireo.CountSessionBuilds()
		first, err := albireo.EvalNetwork(cfg, net, opts)
		if n := stop(); n != tc.want {
			t.Errorf("fused=%v: first evaluation built %d sessions, want %d", tc.fused, n, tc.want)
		}
		if err != nil {
			t.Fatal(err)
		}
		stop = albireo.CountSessionBuilds()
		again, err := albireo.EvalNetwork(cfg, net, opts)
		if n := stop(); n != 0 {
			t.Errorf("fused=%v: repeat evaluation built %d sessions, want 0", tc.fused, n)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again.Total, first.Total) {
			t.Errorf("fused=%v: repeat network total differs from the first", tc.fused)
		}
	}
}

// TestSessionMemoResetRebuildsSessions: past its cap the session memo
// resets, and a configuration seen again rebuilds a session for the same
// architecture, which evaluates exactly as the first did.
func TestSessionMemoResetRebuildsSessions(t *testing.T) {
	albireo.ResetSessionMemo()
	cfg := albireo.Default(albireo.Conservative)
	other := albireo.Default(albireo.Aggressive)
	net := workload.AlexNet(1)
	opts := albireo.NetOptions{Batch: 1, Mapper: mapper.Options{Budget: 30, Seed: 2, Workers: 1}}

	stop := albireo.CountSessionBuilds()
	first, err := albireo.SessionFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	memo, err := albireo.SessionFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := albireo.EvalNetwork(cfg, net, opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := stop(); n != 1 || memo != first {
		t.Errorf("first sight and two memo hits built %d sessions (shared: %v), want 1 shared", n, memo == first)
	}
	albireo.FillSessionMemo()
	if n := albireo.SessionMemoLen(); n != albireo.MaxSessionMemo {
		t.Fatalf("filled memo holds %d configurations, want %d", n, albireo.MaxSessionMemo)
	}
	if _, err := albireo.SessionFor(other); err != nil { // a new configuration at the cap resets
		t.Fatal(err)
	}
	if n := albireo.SessionMemoLen(); n != 1 {
		t.Fatalf("memo holds %d configurations after the reset, want 1", n)
	}
	stop = albireo.CountSessionBuilds()
	rebuilt, err := albireo.SessionFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := albireo.EvalNetwork(cfg, net, opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := stop(); n != 1 {
		t.Errorf("a configuration dropped by the reset built %d sessions, want 1", n)
	}
	if rebuilt == first || rebuilt.Fingerprint() != first.Fingerprint() {
		t.Errorf("rebuilt session: new %v, same architecture %v; want both", rebuilt != first, rebuilt.Fingerprint() == first.Fingerprint())
	}
	if !reflect.DeepEqual(got.Total, want.Total) {
		t.Error("evaluation on the rebuilt session differs from the first")
	}
}
