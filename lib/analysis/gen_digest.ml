(* Prints [Code_digest]: the MD5 of the files named on the command line. *)
let () =
  let read f = In_channel.with_open_bin f In_channel.input_all in
  let files = List.tl (Array.to_list Sys.argv) in
  let md5 = Digest.string (String.concat "\x00" (List.map read files)) in
  Printf.printf "let v = %S\n" (Digest.to_hex md5)
