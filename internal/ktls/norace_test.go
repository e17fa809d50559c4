//go:build !race

package ktls

const raceEnabled = false
