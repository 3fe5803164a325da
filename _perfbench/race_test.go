//go:build race

package main

// raceEnabled: the race detector slows the server well below the open
// loop's fixed rate, so the generator falls behind by design.
const raceEnabled = true
