(* Fault injection on the measurement store, on one real entry: the
   measurement of one cold run of inter.  Every fault must be exactly
   one counted miss, never a hit with other bytes: truncation at every
   offset, every single-bit flip, a temp file a killed writer left
   behind, a read-only directory, two domains racing on one key, and a
   file copied under another key's name.  A flipped digit in a
   measurement entry must be recomputed, not rendered. *)

module B = Tagsim.Benchmarks
module Run = Tagsim.Analysis.Run
module Cache = Tagsim.Analysis.Cache
module Scheme = Tagsim.Scheme
module Support = Tagsim.Support

let read_file path = In_channel.with_open_bin path In_channel.input_all

let overwrite path text =
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

let key_of path = Filename.remove_extension (Filename.basename path)

(* The header line of the entry at [path] and the body after it. *)
let split_entry path =
  let text = read_file path in
  let i = String.index text '\n' in
  (String.sub text 0 i, String.sub text (i + 1) (String.length text - i - 1))

let body_of path = snd (split_entry path)

(* The code digest field of the entry at [path]. *)
let stamp_of path =
  match String.split_on_char ' ' (fst (split_entry path)) with
  | [ "tagsim-store"; "cache"; stamp; _; _ ] -> stamp
  | _ -> Alcotest.failf "%s: not an entry header" path

(* Rewrite [path] with [body] as a build whose code digest is [stamp]
   would have written it: the header
   [tagsim-store cache <stamp> <key> <md5 of body>], then the body.  The
   header is valid, so with another [stamp] only that field rejects it. *)
let write_as ~stamp path body =
  overwrite path
    (Printf.sprintf "tagsim-store cache %s %s %s\n%s" stamp (key_of path)
       (Digest.to_hex (Digest.string body))
       body)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let config () =
  Run.config ~scheme:Scheme.high5 ~support:Support.software (B.find "inter")

(* Point the measurement store at a fresh directory, run inter cold
   once, and hand [f] the path of its entry; restore the library
   defaults afterwards. *)
let with_entry f =
  let root = Filename.temp_dir "tagsim_store_test" "" in
  Cache.set_dir root;
  Cache.set_enabled true;
  Run.clear_cache ();
  Fun.protect
    ~finally:(fun () ->
      Cache.set_enabled false;
      Cache.set_dir "_tagsim_cache";
      Run.clear_cache ();
      rm_rf root)
    (fun () ->
      let c = config () in
      ignore (Run.run_config c);
      f (Cache.entry_path (Run.cache_key c)))

let load path = Cache.load (key_of path)

(* Run [damage] on the entry, then put the original file back (which
   must load again). *)
let each_fault path damage =
  let original = read_file path in
  let payload =
    match load path with
    | Some p -> p
    | None -> Alcotest.fail "the undamaged entry misses"
  in
  damage original payload;
  overwrite path original;
  Alcotest.(check bool) "restored" true (load path = Some payload)

(* The lookup of [path] is exactly one counted miss and no hit. *)
let expect_miss path what =
  Cache.reset_counters ();
  (match load path with
  | None -> ()
  | Some _ -> Alcotest.failf "%s loaded" what);
  let hits, misses, _ = Cache.counters () in
  if hits <> 0 || misses <> 1 then
    Alcotest.failf "%s counted %d hits, %d misses" what hits misses

let test_truncation () =
  with_entry (fun path ->
      each_fault path (fun original _ ->
          for n = 0 to String.length original - 1 do
            overwrite path (String.sub original 0 n);
            expect_miss path (Printf.sprintf "truncation to %d bytes" n)
          done))

let test_bit_flips () =
  with_entry (fun path ->
      each_fault path (fun original _ ->
          let b = Bytes.of_string original in
          for i = 0 to Bytes.length b - 1 do
            let c = Bytes.get_uint8 b i in
            for bit = 0 to 7 do
              Bytes.set_uint8 b i (c lxor (1 lsl bit));
              overwrite path (Bytes.to_string b);
              expect_miss path
                (Printf.sprintf "flip of bit %d at byte %d" bit i)
            done;
            Bytes.set_uint8 b i c
          done))

(* A kill between the write and the rename leaves
   [<key>.tmp.<pid>.<domain>.entry] beside (or instead of) the entry. *)
let test_stray_temp () =
  with_entry (fun path ->
      each_fault path (fun original payload ->
          let tmp =
            Filename.concat (Filename.dirname path)
              (key_of path ^ ".tmp.4242.0.entry")
          in
          overwrite tmp original;
          Alcotest.(check bool) "entry served, temp ignored" true
            (load path = Some payload);
          Sys.remove path;
          expect_miss path "a stray temp file";
          Cache.wipe ();
          Alcotest.(check bool) "wipe removes the temp file" false
            (Sys.file_exists tmp)))

(* A store directory nothing can be written into: [(to_remove, dir)].
   Permission bits do not bind the superuser, so where the read-only
   directory stays writable the store goes below a regular file
   instead, which no process can write into either. *)
let unwritable_dir () =
  let ro = Filename.temp_dir "tagsim_store_ro" "" in
  Unix.chmod ro 0o555;
  let probe = Filename.concat ro "probe" in
  match open_out probe with
  | exception Sys_error _ -> (ro, ro)
  | oc ->
      close_out oc;
      (ro, Filename.concat probe "store")

let test_read_only_dir () =
  with_entry (fun path ->
      let payload = Option.get (load path) and dir = Cache.dir () in
      let ro, target = unwritable_dir () in
      Fun.protect
        ~finally:(fun () ->
          Cache.set_dir dir;
          Unix.chmod ro 0o755;
          rm_rf ro)
        (fun () ->
          Cache.set_dir target;
          Cache.reset_counters ();
          Cache.store (key_of path) payload;
          let _, _, writes = Cache.counters () in
          Alcotest.(check int) "no write" 0 writes;
          expect_miss
            (Cache.entry_path (key_of path))
            "an entry in an unwritable directory"))

let test_racing_domains () =
  with_entry (fun path ->
      let payload = Option.get (load path) and k = key_of path in
      let text = read_file path in
      Sys.remove path;
      let writer () =
        for _ = 1 to 50 do
          Cache.store k payload
        done
      in
      let d = Domain.spawn writer in
      writer ();
      Domain.join d;
      Alcotest.(check string) "intact" text (read_file path);
      Alcotest.(check bool) "loads" true (load path = Some payload);
      Array.iter
        (fun n ->
          if Filename.check_suffix n ".entry"
             && n <> Filename.basename path
             && String.starts_with ~prefix:k n
          then Alcotest.failf "temp file %s left behind" n)
        (Sys.readdir (Cache.dir ())))

let test_copied_under_other_key () =
  with_entry (fun path ->
      let other =
        Cache.entry_path (Digest.to_hex (Digest.string "another key"))
      in
      overwrite other (read_file path);
      expect_miss other "a copy under another key";
      Sys.remove other)

(* A one-bit flip inside inter's measurement payload ("meta 9" becomes
   "meta 1", 0x39 -> 0x31) parses perfectly well: only the digest can
   reject it.  The run must recompute and report 9 procedures. *)
let test_meta_flip_recomputes () =
  with_entry (fun path ->
      let text = read_file path in
      let at =
        let rec find i =
          if String.sub text i 7 = "\nmeta 9" then i + 6 else find (i + 1)
        in
        find 0
      in
      let b = Bytes.of_string text in
      Bytes.set b at '1';
      overwrite path (Bytes.to_string b);
      Run.clear_cache ();
      Cache.reset_counters ();
      let before = Run.simulations () in
      let m = Run.run_config (config ()) in
      Alcotest.(check int) "recomputed" (before + 1) (Run.simulations ());
      Alcotest.(check (triple int int int)) "one miss, one rewrite" (0, 1, 1)
        (Cache.counters ());
      Alcotest.(check int) "procedures" 9 m.Run.meta.Tagsim.Program.procedures;
      Alcotest.(check string) "undamaged bytes rewritten" text
        (read_file path))

let suite =
  [
    ( "store",
      [
        Alcotest.test_case "truncation-every-offset" `Quick test_truncation;
        Alcotest.test_case "bit-flip-every-bit" `Quick test_bit_flips;
        Alcotest.test_case "stray-temp-file" `Quick test_stray_temp;
        Alcotest.test_case "read-only-dir" `Quick test_read_only_dir;
        Alcotest.test_case "racing-domains" `Quick test_racing_domains;
        Alcotest.test_case "copied-under-other-key" `Quick
          test_copied_under_other_key;
        Alcotest.test_case "meta-flip-recomputes" `Quick
          test_meta_flip_recomputes;
      ] );
  ]
