// Command use is the fixture's production code.
package main

import "callers/internal/fix"

func main() {
	var p fix.Pinger = fix.Quiet{}
	_ = p
	println(fix.Gauge{}.Size(), fix.Box[int]{}.Get())
}
