package safetynet

import (
	"reflect"
	"testing"

	"dvmc/internal/mem"
	"dvmc/internal/network"
	"dvmc/internal/sim"
)

// TestKeptEqualsNew re-initialises a manager that holds live checkpoints
// and a logger that logged blocks, for another configuration, and
// requires each to equal one built new with the same arguments once the
// storage its init keeps is blanked in both: a field init forgets to
// reset shows as a difference.
func TestKeptEqualsNew(t *testing.T) {
	msgs, recs := new(sim.FreeList[network.Message]), new(sim.FreeList[LogRecord])
	net := &captureNet{}
	other := Config{Interval: 300, Keep: 2}

	m, _, _ := newTestManager(100, 3)
	var k sim.Kernel
	k.Register(m)
	l := NewLogger(1, func(b mem.BlockAddr) network.NodeID { return network.NodeID(b % 2) }, net, m)
	k.Register(l)
	k.Run(420)
	for b := mem.BlockAddr(0); b < 8; b++ {
		l.Access(b, true)
	}
	if len(m.live) == 0 || len(l.logged) == 0 || len(net.msgs) == 0 {
		t.Fatal("the manager and logger hold nothing to retire with")
	}

	got, want := m.init(other, nil, nil, msgs, recs), new(Manager).init(other, nil, nil, msgs, recs)
	got.live, want.live = none(got.live), none(want.live)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("re-initialised manager:\n%+v\nnew:\n%+v", got, want)
	}
	gotL, wantL := l.init(3, nil, net, got), new(Logger).init(3, nil, net, got)
	if !reflect.DeepEqual(gotL, wantL) {
		t.Errorf("re-initialised logger:\n%+v\nnew:\n%+v", gotL, wantL)
	}
}

// none is s, or nil if s is empty: how a test blanks the storage an init
// keeps, without hiding what it forgot to empty.
func none[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}
