//go:build !race

package opf

const raceEnabled = false
