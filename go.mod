module boolcube

go 1.23
