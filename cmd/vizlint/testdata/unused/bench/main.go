package main

import "vizq/internal/lib"

func main() {
	lib.FromBench()
}

// benchOnly has no caller, but bench/ is never reported.
func benchOnly() {}
