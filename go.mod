module videoplat

go 1.24
