package serve

// Edges hands the external tests the lifecycle table toLocked checks: the
// model driver builds its reference from it and the DESIGN.md test holds
// §8's table to it.
func Edges() map[State][]State { return edges }

// Failure returns the error that flipped the instance unhealthy, nil when
// healthy.
func (inst *Instance) Failure() error {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	return inst.failure
}

// Scrub runs one scrub of the instance (see scrub).
func (inst *Instance) Scrub() (checked bool, se *ScrubError, err error) { return inst.scrub() }

// ScrubNow runs one fleet sweep (see scrubNow).
func (s *Supervisor) ScrubNow() []string { return s.scrubNow() }

// CorruptResident flips one bit in the named section of the resident
// snapshot. It only touches a ready, idle instance (the same precondition
// scrub checks), so the corrupted bytes are exactly the ones the next sweep
// verifies. The snapshot's adjacency is private to this instance, so the
// damage never leaks into other instances or the dataset cache.
func (inst *Instance) CorruptResident(rank int, section string) error {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	if inst.state != StateReady || !inst.idleLocked() {
		return ErrNotReady
	}
	return inst.snap.CorruptForTest(rank, section)
}
