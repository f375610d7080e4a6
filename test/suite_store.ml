(* Fault injection on the content-addressed store, on one real file of
   its one namespace: the measurement entry of one cold run of inter.
   Every fault must be a miss, never a hit with other bytes: truncation
   at every offset, every single-bit flip, a temp file a killed writer
   left behind, a read-only directory, two domains racing on one key,
   and a file copied under another key's name.  A flipped digit in a
   measurement entry must be recomputed, not rendered. *)

module B = Tagsim.Benchmarks
module Run = Tagsim.Analysis.Run
module Cache = Tagsim.Analysis.Cache
module Store = Tagsim.Store
module Scheme = Tagsim.Scheme
module Support = Tagsim.Support

let read_file path = In_channel.with_open_bin path In_channel.input_all

let overwrite path text =
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

let key_of path = Filename.remove_extension (Filename.basename path)

(* The body of the store file at [path], its header line dropped. *)
let body_of path =
  let text = read_file path in
  let i = String.index text '\n' + 1 in
  String.sub text i (String.length text - i)

(* Rewrite [path] with [body] as a store of namespace [name] at
   [version] would have written it: a valid header and digest, so only
   the version field can reject it. *)
let write_as ~name ~ext ~version path body =
  let ns = Store.create ~name ~ext ~version ~dir:(Filename.dirname path) in
  Store.set_enabled ns true;
  Store.store ns (key_of path) Fun.id body

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let config () =
  Run.config ~scheme:Scheme.high5 ~support:Support.software (B.find "inter")

(* One real file of a namespace. *)
type sample = { label : string; ns : Store.t; path : string }

(* Point the measurement store at a fresh directory, run inter cold
   once, and hand [f] its entry; restore the library defaults
   afterwards. *)
let with_samples f =
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
      f
        [
          { label = "entry"; ns = Cache.namespace;
            path = Cache.entry_path (Run.cache_key c) };
        ])

let load s = Store.load s.ns (key_of s.path) Fun.id

(* Run [damage] on every sample, check the namespace reports exactly
   one miss and no hit for the lookup that follows, and put the
   original file back (which must load again). *)
let each_fault samples damage =
  List.iter
    (fun s ->
      let original = read_file s.path in
      let body =
        match load s with
        | Some b -> b
        | None -> Alcotest.failf "%s: the undamaged sample misses" s.label
      in
      damage s original body;
      overwrite s.path original;
      Alcotest.(check (option string))
        (s.label ^ ": restored") (Some body) (load s))
    samples

let expect_miss s what =
  Store.reset_counters s.ns;
  (match load s with
  | None -> ()
  | Some _ -> Alcotest.failf "%s: %s loaded" s.label what);
  let hits, misses, _ = Store.counters s.ns in
  if hits <> 0 || misses <> 1 then
    Alcotest.failf "%s: %s counted %d hits, %d misses" s.label what hits misses

let test_truncation () =
  with_samples (fun samples ->
      each_fault samples (fun s original _ ->
          for n = 0 to String.length original - 1 do
            overwrite s.path (String.sub original 0 n);
            expect_miss s (Printf.sprintf "truncation to %d bytes" n)
          done))

let test_bit_flips () =
  with_samples (fun samples ->
      each_fault samples (fun s original _ ->
          let b = Bytes.of_string original in
          for i = 0 to Bytes.length b - 1 do
            let c = Bytes.get_uint8 b i in
            for bit = 0 to 7 do
              Bytes.set_uint8 b i (c lxor (1 lsl bit));
              overwrite s.path (Bytes.to_string b);
              expect_miss s (Printf.sprintf "flip of bit %d at byte %d" bit i)
            done;
            Bytes.set_uint8 b i c
          done))

(* A kill between the write and the rename leaves
   [<key>.tmp.<pid>.<domain>.<ext>] beside (or instead of) the entry. *)
let test_stray_temp () =
  with_samples (fun samples ->
      each_fault samples (fun s original body ->
          let ext = Filename.extension s.path in
          let tmp =
            Filename.concat (Filename.dirname s.path)
              (key_of s.path ^ ".tmp.4242.0" ^ ext)
          in
          overwrite tmp original;
          Alcotest.(check (option string))
            (s.label ^ ": entry served, temp ignored") (Some body) (load s);
          Sys.remove s.path;
          expect_miss s "a stray temp file";
          Store.wipe s.ns;
          Alcotest.(check bool) (s.label ^ ": wipe removes the temp file") false
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
  with_samples (fun samples ->
      List.iter
        (fun s ->
          let body = Option.get (load s) and dir = Store.dir s.ns in
          let ro, target = unwritable_dir () in
          Fun.protect
            ~finally:(fun () ->
              Store.set_dir s.ns dir;
              Unix.chmod ro 0o755;
              rm_rf ro)
            (fun () ->
              Store.set_dir s.ns target;
              Store.reset_counters s.ns;
              Store.store s.ns (key_of s.path) Fun.id body;
              let _, _, writes = Store.counters s.ns in
              Alcotest.(check int) (s.label ^ ": no write") 0 writes;
              expect_miss
                { s with path = Store.path s.ns (key_of s.path) }
                "an entry in an unwritable directory"))
        samples)

let test_racing_domains () =
  with_samples (fun samples ->
      List.iter
        (fun s ->
          let body = Option.get (load s) and k = key_of s.path in
          Sys.remove s.path;
          let writer () =
            for _ = 1 to 50 do
              Store.store s.ns k Fun.id body
            done
          in
          let d = Domain.spawn writer in
          writer ();
          Domain.join d;
          Alcotest.(check (option string)) (s.label ^ ": intact") (Some body)
            (load s);
          Array.iter
            (fun n ->
              if Filename.check_suffix n (Filename.extension s.path)
                 && n <> Filename.basename s.path
                 && String.starts_with ~prefix:k n
              then Alcotest.failf "%s: temp file %s left behind" s.label n)
            (Sys.readdir (Store.dir s.ns)))
        samples)

let test_copied_under_other_key () =
  with_samples (fun samples ->
      List.iter
        (fun s ->
          let other = Store.path s.ns (Store.key s.ns [ "another key" ]) in
          overwrite other (read_file s.path);
          expect_miss { s with path = other } "a copy under another key";
          Sys.remove other)
        samples)

(* A one-bit flip inside inter's measurement payload ("meta 9" becomes
   "meta 1", 0x39 -> 0x31) parses perfectly well: only the digest can
   reject it.  The run must recompute and report 9 procedures. *)
let test_meta_flip_recomputes () =
  with_samples (fun samples ->
      let entry = List.find (fun s -> s.label = "entry") samples in
      let text = read_file entry.path in
      let at =
        let rec find i =
          if String.sub text i 7 = "\nmeta 9" then i + 6 else find (i + 1)
        in
        find 0
      in
      let b = Bytes.of_string text in
      Bytes.set b at '1';
      overwrite entry.path (Bytes.to_string b);
      Run.clear_cache ();
      Cache.reset_counters ();
      let before = Run.simulations () in
      let m = Run.run_config (config ()) in
      Alcotest.(check int) "recomputed" (before + 1) (Run.simulations ());
      Alcotest.(check (triple int int int)) "one miss, one rewrite" (0, 1, 1)
        (Cache.counters ());
      Alcotest.(check int) "procedures" 9 m.Run.meta.Tagsim.Program.procedures;
      Alcotest.(check string) "undamaged bytes rewritten" text
        (read_file entry.path))

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
