module crono/bench

go 1.22

require crono v0.0.0

replace crono => ../
