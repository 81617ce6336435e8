package orphan // want: unused (only lib_test.go imports it)

// Answer is read by a test alone.
const Answer = 42
