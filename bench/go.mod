module vizq/bench

go 1.22

require vizq v0.0.0

replace vizq => ../
