module rwp/bench

go 1.22

require rwp v0.0.0

replace rwp => ../
