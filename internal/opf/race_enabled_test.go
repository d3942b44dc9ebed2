//go:build race

package opf

// raceEnabled lets the serial outage-fleet test sample its large fleets
// under the race detector.
const raceEnabled = true
