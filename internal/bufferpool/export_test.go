package bufferpool

// CheckWarmMatchesReplay lets the external test package, which can
// import the workload definitions, run the differential check.
var CheckWarmMatchesReplay = checkWarmMatchesReplay

// IsDense reports whether p is still in its dense state, so a test
// outside the package can pin that a workload keeps it there.
func IsDense(p *Pool) bool { return p.dense }
