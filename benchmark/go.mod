module mcs/benchmark

go 1.22

require mcs v0.0.0

replace mcs => ../
