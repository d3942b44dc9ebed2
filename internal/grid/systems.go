package grid

import (
	"fmt"
	"strings"
)

// systems is the embedded fleet in size order: the eight systems of the
// paper's Table I and the beyond-paper scaling system case1354. Every
// one is fixed data (see cases.go); nothing is synthesized on load.
var systems = []struct {
	name  string
	build func() *Case
}{
	{"case5", Case5},
	{"case9", Case9},
	{"case14", Case14},
	{"case30", Case30},
	{"case39", Case39},
	{"case57", Case57},
	{"case118", Case118},
	{"case300", Case300},
	{"case1354", Case1354},
}

// Names lists, in size order, every system ByName serves.
func Names() []string {
	names := make([]string, len(systems))
	for i, s := range systems {
		names[i] = s.name
	}
	return names
}

// ByName returns a fresh copy of the named embedded system.
func ByName(name string) (*Case, error) {
	for _, s := range systems {
		if s.name == name {
			return s.build(), nil
		}
	}
	return nil, fmt.Errorf("grid: unknown system %q (have %s)", name, strings.Join(Names(), ", "))
}
