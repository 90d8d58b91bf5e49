package mem

import (
	"reflect"
	"testing"
)

// TestKeptEqualsNew re-initialises a memory that holds blocks, open undo
// intervals and an injected upset, and requires it to equal a new one
// once the log storage its init keeps is blanked in both: a field init
// forgets to reset shows as a difference.
func TestKeptEqualsNew(t *testing.T) {
	m := NewMemory()
	for b := BlockAddr(0); b < 8; b++ {
		m.WriteBlock(b, Block{Word(b)})
		if b%3 == 0 {
			m.Mark()
		}
	}
	m.CorruptBit(2, 5)
	m.ReadBlock(2)
	m.CorruptBit(3, 7)
	got, want := m.Init(), NewMemory()
	for _, x := range []*Memory{got, want} {
		x.log, x.marks, x.ecc.upsets = none(x.log), none(x.marks), none(x.ecc.upsets)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("re-initialised:\n%+v\nnew:\n%+v", got, want)
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
