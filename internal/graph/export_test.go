package graph

// SetPortableBytes forces (or releases) the encode/decode fallback of the
// byte view for tests outside the package.
func SetPortableBytes(on bool) { portableBytes = on }
