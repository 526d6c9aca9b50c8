module ritree/benchmark

go 1.23

require ritree v0.0.0

replace ritree => ../
