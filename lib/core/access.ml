type mode = Read | Write | Read_write

let is_read = function Read | Read_write -> true | Write -> false

let is_write = function Write | Read_write -> true | Read -> false

let conflicts a b = is_write a || is_write b
