module videoplat/bench

go 1.24

require videoplat v0.0.0

replace videoplat => ../
