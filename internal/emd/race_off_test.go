//go:build !race

package emd

const raceEnabled = false
