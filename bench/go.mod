module github.com/agilla-go/agilla/bench

go 1.22

require github.com/agilla-go/agilla v0.0.0

replace github.com/agilla-go/agilla => ../
