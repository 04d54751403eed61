val entry : int -> int
