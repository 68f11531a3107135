//go:build race

package prob

const raceEnabled = true
