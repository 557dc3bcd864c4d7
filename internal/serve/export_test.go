package serve

// Edges hands the external tests the lifecycle table toLocked checks: the
// model driver builds its reference from it and the DESIGN.md test holds
// §8's table to it.
func Edges() map[State][]State { return edges }
