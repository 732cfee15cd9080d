package main

import "time"

// epoch anchors every timestamp the benchmark takes. It is the one place the
// wall clock is read: the benchmark exists to measure host time, while the
// program it measures must never read it (the cubevet detbreak contract).
var epoch = time.Now() //cubevet:ignore detbreak -- the benchmark measures host wall-clock time by design; simulated results are checked against golden.json

// now returns the monotonic host time since the process's epoch.
func now() time.Duration { return time.Since(epoch) }

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sec converts a duration to fractional seconds.
func sec(d time.Duration) float64 { return d.Seconds() }
