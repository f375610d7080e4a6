(* See store.mli for the file format and the failure contract. *)

type t = {
  name : string;
  ext : string;
  version : string;
  mutable enabled : bool;
  mutable dir : string;
  hits : int Atomic.t;
  misses : int Atomic.t;
  writes : int Atomic.t;
}

let create ~name ~ext ~version ~dir =
  let n () = Atomic.make 0 in
  { name; ext; version; dir; enabled = false; hits = n (); misses = n ();
    writes = n () }

let enabled t = t.enabled
let set_enabled t b = t.enabled <- b
let dir t = t.dir
let set_dir t d = t.dir <- d
let counters t = (Atomic.get t.hits, Atomic.get t.misses, Atomic.get t.writes)

let reset_counters t =
  List.iter (fun c -> Atomic.set c 0) [ t.hits; t.misses; t.writes ]

let key t parts =
  Digest.to_hex
    (Digest.string
       (String.concat "\n" (("tagsim-" ^ t.name) :: t.version :: parts)))

let path t k = Filename.concat t.dir (k ^ "." ^ t.ext)

(* The header line up to, not including, the body digest. *)
let prefix t k = Printf.sprintf "tagsim-store %s %s %s " t.name t.version k

(* The body of [k]'s file if it is a well-formed entry for [k]: the
   header line, then a body with the digest the header names. *)
let read_body t k =
  In_channel.with_open_bin (path t k) (fun ic ->
      let header = input_line ic in
      (* [input_line] also returns an unterminated last line. *)
      if pos_in ic <> String.length header + 1 then None
      else
        let body = really_input_string ic (in_channel_length ic - pos_in ic) in
        if header = prefix t k ^ Digest.to_hex (Digest.string body) then
          Some body
        else None)

let load t k parse =
  if not t.enabled then None
  else
    let result =
      match read_body t k with
      | Some body -> ( try Some (parse body) with _ -> None)
      | None -> None
      | exception _ -> None
    in
    Atomic.incr (if Option.is_some result then t.hits else t.misses);
    result

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o777 with Sys_error _ -> ()
  end

let store t k serialize v =
  if t.enabled then begin
    (* Unique per process and domain; ends in [.ext] so that [wipe]
       finds one a kill left between the write and the rename. *)
    let tmp =
      Filename.concat t.dir
        (Printf.sprintf "%s.tmp.%d.%d.%s" k (Unix.getpid ())
           (Domain.self () :> int)
           t.ext)
    in
    try
      let body = serialize v in
      mkdir_p t.dir;
      Out_channel.with_open_bin tmp (fun oc ->
          output_string oc (prefix t k);
          output_string oc (Digest.to_hex (Digest.string body));
          output_char oc '\n';
          output_string oc body);
      Sys.rename tmp (path t k);
      Atomic.incr t.writes
    with _ -> ( try Sys.remove tmp with Sys_error _ -> ())
  end

let wipe t =
  match Sys.readdir t.dir with
  | exception Sys_error _ -> ()
  | names ->
      Array.iter
        (fun name ->
          if Filename.check_suffix name ("." ^ t.ext) then
            try Sys.remove (Filename.concat t.dir name) with Sys_error _ -> ())
        names
