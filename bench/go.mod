module mpf/bench

go 1.23

require mpf v0.0.0

replace mpf => ../
