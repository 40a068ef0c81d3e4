//go:build race

package exec

// raceEnabled reports a -race build, under which timing-heavy tests skip.
const raceEnabled = true
