package coherence

import "testing"

func TestDirCacheResetAndResume(t *testing.T) {
	s := newHarness(t, directory, 4)
	s.store(t, 0, 0x1000, 7)
	s.load(t, 1, 0x1000)
	// Simulate recovery: drop all caches, home state, and the network.
	s.torus.Reset()
	for _, c := range s.cores {
		c.Reset()
	}
	for _, h := range s.homes {
		m := h.Memory()
		m.Rewind(m.Mark())
		h.Reset()
	}
	// The memory snapshot was taken after reset of caches, so the dirty
	// value lives only in the pre-reset cache: rebuild it via a store.
	s.store(t, 2, 0x1000, 9)
	if got := s.load(t, 3, 0x1000); got != 9 {
		t.Errorf("post-reset value = %d, want 9", got)
	}
	for _, c := range s.cores {
		if c.Outstanding() != 0 && c.l2.occupancy() == 0 {
			t.Error("reset left transient state")
		}
	}
}

func TestSnoopCacheResetAndResume(t *testing.T) {
	s := newHarness(t, snooping, 2)
	s.store(t, 0, 0x1000, 7)
	s.torus.Reset()
	s.bcast.Reset()
	for _, c := range s.cores {
		c.Reset()
	}
	for _, h := range s.homes {
		h.Reset()
	}
	s.store(t, 1, 0x1000, 9)
	if got := s.load(t, 0, 0x1000); got != 9 {
		t.Errorf("post-reset snooping value = %d, want 9", got)
	}
}
