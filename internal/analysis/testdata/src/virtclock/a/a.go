// Package a models a simulator package: all time must come from the
// virtual clock and all randomness from a seeded generator.
package a

import (
	"math/rand"
	"time"
)

// Elapsed is fine: time.Duration is the virtual clock's unit.
var Elapsed time.Duration = 3 * time.Millisecond

func clocks() time.Duration {
	start := time.Now()      // want `time.Now reads the wall clock`
	time.Sleep(time.Second)  // want `time.Sleep reads the wall clock`
	return time.Since(start) // want `time.Since reads the wall clock`
}

func timers() {
	<-time.After(time.Second) // want `time.After reads the wall clock`
	_ = time.Tick(Elapsed)    // want `time.Tick reads the wall clock`
}

func globalRand() int {
	rand.Shuffle(4, func(i, j int) {}) // want `rand.Shuffle draws from the global source`
	return rand.Intn(10)               // want `rand.Intn draws from the global source`
}

func threads() {
	go timers() // want `go statement starts a real thread`
}

func seededRand() int {
	r := rand.New(rand.NewSource(42)) // constructors are the approved path
	return r.Intn(10)                 // methods on a seeded *rand.Rand are fine
}

// lastRescue holds a virtual timestamp; comparing stored sim.Now() values
// is the approved idiom for rate-limit gates (the SACK rescue timer).
var lastRescue time.Duration

func rescueGate(now, srtt time.Duration) bool {
	if now-lastRescue < srtt {
		return false
	}
	lastRescue = now
	return true
}
