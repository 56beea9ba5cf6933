module dmps/bench

go 1.22

require dmps v0.0.0

replace dmps => ../
