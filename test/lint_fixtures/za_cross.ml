(* The allocating callee lives in another module (Za_indirect): the
   finding needs that module's typed tree, passed as a dep. *)

(* elmo-lint: zero-alloc *)
let entry n = List.length (Za_indirect.helper n)
