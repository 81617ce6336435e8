package main

import "vizq/internal/lib"

func main() {
	lib.Used()
	c := lib.New(lib.Config{Literal: 1})
	c.Assigned = 2
	_ = lib.Shadow{Defaulted: 3} // another type's literal sets no Config field
}
