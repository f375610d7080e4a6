(* The retired object memo's entry points, as no-ops for tagbench/. *)
let counters () = (0, 0, 0)
let set_dir (_ : string) = ()
let set_enabled (_ : bool) = ()
