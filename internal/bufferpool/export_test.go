package bufferpool

// CheckWarmMatchesReplay lets the external test package, which can
// import the workload definitions, run the differential check.
var CheckWarmMatchesReplay = checkWarmMatchesReplay
