module kdap/benchmark

go 1.22

require kdap v0.0.0

replace kdap => ../
