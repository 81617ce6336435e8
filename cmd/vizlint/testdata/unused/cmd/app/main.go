package main

import "vizq/internal/lib"

func main() {
	lib.Used()
}
