package dvmc

// OnOneSpare runs fn with every system it builds drawing one new spare,
// so each run after the first finds what the runs before it left: the
// external tests' way, which may import packages that import this one
// (internal/fuzz), to build on an explicit spare. fn builds one system
// at a time and retires each before the next.
func OnOneSpare(fn func()) { onSpare(nil, fn) }
