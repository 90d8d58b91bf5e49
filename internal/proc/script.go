package proc

// ScriptProgram replays a fixed operation sequence. It ignores Blocking
// results (the script is static), making it useful for tests, examples,
// and microbenchmarks.
type ScriptProgram struct {
	ops []Op
	pos int
}

var _ Program = (*ScriptProgram)(nil)

// NewScript builds a program from a fixed op slice.
func NewScript(ops []Op) *ScriptProgram { return &ScriptProgram{ops: ops} }

// Next implements Program.
func (s *ScriptProgram) Next(Result) (Op, bool) {
	if s.pos >= len(s.ops) {
		return Op{}, false
	}
	op := s.ops[s.pos]
	s.pos++
	return op, true
}

// Snapshot implements Program.
func (s *ScriptProgram) Snapshot(into any) any {
	p, ok := into.(*int)
	if !ok {
		p = new(int)
	}
	*p = s.pos
	return p
}

// Restore implements Program.
func (s *ScriptProgram) Restore(v any) { s.pos = *v.(*int) }
