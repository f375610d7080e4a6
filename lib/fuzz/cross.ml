module Scheme = Tagsim_tags.Scheme
module Support = Tagsim_tags.Support
module Machine = Tagsim_sim.Machine
module Stats = Tagsim_sim.Stats
module Image = Tagsim_asm.Image
module Layout = Tagsim_runtime.Layout
module Program = Tagsim_compiler.Program
module Codegen = Tagsim_compiler.Codegen
module Oracle = Tagsim_compiler.Oracle
module Expand = Tagsim_lisp.Expand
module Sexp = Tagsim_lisp.Sexp

type matrix = {
  m_name : string;
  m_pairs : (Scheme.t * Support.t) list;
  m_engines : Machine.engine list;
  m_backends : Program.backend list;
  m_opts : Program.opt list;
}

let chk = Support.with_checking Support.software

let smoke =
  {
    m_name = "smoke";
    m_pairs = [ (Scheme.high5, chk) ];
    m_engines = Machine.engine_all;
    m_backends = [ `Monolithic; `Incremental ];
    m_opts = [ `None; `Checks ];
  }

let full =
  {
    m_name = "full";
    m_pairs =
      List.concat_map
        (fun scheme -> [ (scheme, Support.software); (scheme, chk) ])
        Scheme.all
      @ [
          (Scheme.high5, Support.with_checking Support.row2);
          (Scheme.high5, Support.with_checking Support.row4);
          (Scheme.low2, Support.with_checking Support.row7);
          (Scheme.high6, Support.with_checking Support.spur);
        ];
    m_engines = Machine.engine_all;
    m_backends = [ `Monolithic; `Incremental ];
    m_opts = [ `None; `Checks ];
  }

let matrix_names = [ "smoke"; "full" ]

let by_name = function
  | "smoke" -> Some smoke
  | "full" -> Some full
  | _ -> None

type outcome =
  | Value of string
  | Abort of string
  | Fault of string
  | Timeout
  | Compile_error of string

let outcome_to_string = function
  | Value v -> "value " ^ v
  | Abort m -> "abort: " ^ m
  | Fault m -> "machine fault: " ^ m
  | Timeout -> "timeout (out of fuel)"
  | Compile_error m -> "compile error: " ^ m

type divergence = {
  d_scheme : Scheme.t;
  d_support : Support.t;
  d_detail : string;
}

type verdict = Agree | Rejected | Diverge of divergence

let narrow m (d : divergence) =
  {
    m with
    m_name = m.m_name ^ "/narrowed";
    m_pairs = [ (d.d_scheme, d.d_support) ];
  }

(* One engine run: outcome plus the raw statistics and GC counters.
   Fuel exhaustion and memory faults are outcomes, not failures — all
   engines execute the same image cycle for cycle, so they must agree
   even on those, statistics included: the machine outlives the
   exception, and both engines stop at the identical retirement
   count. *)
type run = {
  r_outcome : outcome;
  r_stats : Stats.t option;
  r_gc : (int * int) option;
}

let compile ?(sizes = Gen.sizes) ~backend ~opt ~scheme ~support source =
  match Program.compile ~backend ~opt ~sizes ~scheme ~support source with
  | p -> Ok p
  | exception Program.Error m -> Error m
  | exception Codegen.Error m -> Error m
  | exception Expand.Error m -> Error m
  | exception Sexp.Parse_error m -> Error m
  | exception Invalid_argument m -> Error ("invalid: " ^ m)

let run_engine ~fuel ~engine p =
  let unrun outcome = { r_outcome = outcome; r_stats = None; r_gc = None } in
  match Program.load ~fuel ~engine p with
  | exception Machine.Machine_error m -> unrun (Fault m)
  | exception Invalid_argument m -> unrun (Fault ("undecodable result: " ^ m))
  | m, _ -> (
      let stopped outcome =
        { r_outcome = outcome; r_stats = Some (Machine.stats m); r_gc = None }
      in
      match Machine.run m with
      | exception Machine.Out_of_fuel -> stopped Timeout
      | exception Machine.Machine_error msg ->
          (* a wild memory fault, as opposed to a checked [Abort]: its
             message embeds the faulting pc, which is layout-dependent,
             so faults are only comparable between runs of the same
             image *)
          stopped (Fault msg)
      | stop ->
          let outcome =
            match stop with
            | Machine.Aborted code -> Abort (Program.abort_message code)
            | Machine.Halted w -> (
                match Program.decode p m w with
                | v -> Value (Program.hval_to_string v)
                | exception Machine.Machine_error msg -> Fault msg
                | exception Invalid_argument msg ->
                    (* an unchecked run can terminate normally with a
                       garbage word in the result register; the host-side
                       value decoder rejects it *)
                    Fault ("undecodable result: " ^ msg))
          in
          let peek lbl =
            Machine.peek m (Image.data_address p.Program.image lbl)
          in
          {
            (stopped outcome) with
            r_gc = Some (peek Layout.l_gc_count, peek Layout.l_gc_copied);
          })

let outcome_equal a b =
  match (a, b) with
  | Value x, Value y -> x = y
  | Abort x, Abort y -> x = y
  | Fault x, Fault y -> x = y
  | Timeout, Timeout -> true
  (* compile errors compare by acceptance, not message: the two
     backends word their depth rejections differently *)
  | Compile_error _, Compile_error _ -> true
  | _ -> false

let config_name ~scheme ~support ~opt extra =
  Fmt.str "%s/%s/%s%s" scheme.Scheme.name (Support.describe support)
    (match opt with `None -> "opt:none" | `Checks -> "opt:checks")
    extra

(* The sizing a heap overflow is re-checked under: 16x the fuzzing
   semispace, the same stack. *)
let roomy =
  { Gen.sizes with Layout.semi_bytes = 16 * Gen.sizes.Layout.semi_bytes }

(* The [`None] outcome of one cell under [roomy] sizing, on the
   matrix's first backend and engine. *)
let roomy_outcome ~fuel m ~scheme ~support source =
  match
    compile ~sizes:roomy ~backend:(List.hd m.m_backends) ~opt:`None ~scheme
      ~support source
  with
  | Ok p -> (run_engine ~fuel ~engine:(List.hd m.m_engines) p).r_outcome
  | Error msg -> Compile_error msg

(* Check one (scheme, support) cell; returns the first divergence and
   whether any configuration actually ran the program. *)
let check_cell ~fuel m ~scheme ~support source : string option * bool =
  let diverged = ref None in
  let fail fmt = Fmt.kstr (fun s -> if !diverged = None then diverged := Some s) fmt in
  let name = config_name ~scheme ~support in
  (* per-opt-level representative outcome (reference engine), for the
     cross-level and host-oracle comparisons *)
  let level_outcome : (Program.opt * outcome) list ref = ref [] in
  let ran = ref false in
  List.iter
    (fun (opt : Program.opt) ->
      if !diverged = None then begin
        (* backends: at [`None] both must accept or both reject, and on
           acceptance the images must be byte-identical.  The
           monolithic backend ignores the optimization knob, so at
           [`Checks] only the incremental backend is meaningful. *)
        let backends =
          match opt with
          | `None -> m.m_backends
          | `Checks ->
              List.filter (fun b -> b = `Incremental) m.m_backends
        in
        let compiled =
          List.map
            (fun b -> (b, compile ~backend:b ~opt ~scheme ~support source))
            backends
        in
        (match compiled with
        | (_, Ok p0) :: rest ->
            List.iter
              (fun (b, c) ->
                match c with
                | Ok p ->
                    if not (Image.equal p0.Program.image p.Program.image) then
                      fail "%s: backend images differ (monolithic vs incremental)"
                        (name ~opt "")
                | Error m ->
                    fail "%s: one backend accepts, %s rejects (%s)"
                      (name ~opt "")
                      (match b with
                      | `Monolithic -> "monolithic"
                      | `Incremental -> "incremental")
                      m)
              rest
        | (_, Error m0) :: rest ->
            List.iter
              (fun (_, c) ->
                match c with
                | Ok _ -> fail "%s: one backend rejects (%s), another accepts" (name ~opt "") m0
                | Error _ -> ())
              rest
        | [] -> ());
        (* engines: run the first accepted image under every engine *)
        let runnable =
          List.find_map
            (fun (_, c) -> match c with Ok p -> Some p | Error _ -> None)
            compiled
        in
        (match runnable with
        | None ->
            let msg =
              match compiled with
              | (_, Error m) :: _ -> m
              | _ -> "no backend"
            in
            level_outcome := (opt, Compile_error msg) :: !level_outcome
        | Some p ->
            ran := true;
            let runs =
              List.map (fun e -> (e, run_engine ~fuel ~engine:e p)) m.m_engines
            in
            (* every run that kept its statistics, [Timeout] and [Fault]
               included, must obey the conservation laws *)
            List.iter
              (fun (e, r) ->
                match Option.bind r.r_stats Stats.broken_law with
                | Some law ->
                    fail "%s: engine %s breaks %s" (name ~opt "")
                      (Machine.engine_name e) law
                | None -> ())
              runs;
            (match runs with
            | (e0, r0) :: rest ->
                level_outcome := (opt, r0.r_outcome) :: !level_outcome;
                List.iter
                  (fun (e, r) ->
                    if not (outcome_equal r0.r_outcome r.r_outcome) then
                      fail "%s: engine %s %s, engine %s %s" (name ~opt "")
                        (Machine.engine_name e0)
                        (outcome_to_string r0.r_outcome)
                        (Machine.engine_name e)
                        (outcome_to_string r.r_outcome)
                    else begin
                      (match (r0.r_stats, r.r_stats) with
                      | Some s0, Some s ->
                          if not (Stats.equal s0 s) then
                            fail "%s: stats diverge between %s and %s"
                              (name ~opt "") (Machine.engine_name e0)
                              (Machine.engine_name e)
                      | _ -> ());
                      match (r0.r_gc, r.r_gc) with
                      | Some g0, Some g ->
                          if g0 <> g then
                            fail "%s: GC counters diverge between %s and %s"
                              (name ~opt "") (Machine.engine_name e0)
                              (Machine.engine_name e)
                      | _ -> ()
                    end)
                  rest
            | [] -> ()))
      end)
    m.m_opts;
  (* cross-opt-level: [`Checks] deletes checks that can never fire, so
     with run-time checking on, the observable outcome must survive the
     optimizer exactly.  (With checking off an erroneous program's
     behavior is unchecked — both images deterministically compute
     garbage, but not necessarily the same garbage — so the comparison
     is gated on checking.  Timeouts are exempt: the optimized image
     spends fewer cycles, so only one level may exhaust the budget.
     Wild faults are exempt too: a fault — e.g. from unbounded
     recursion overrunning the stack — is outside the checked
     semantics, and what happens after the overrun depends on the
     image layout.) *)
  if !diverged = None && support.Support.runtime_checking then begin
    match (List.assoc_opt `None !level_outcome, List.assoc_opt `Checks !level_outcome) with
    | Some a, Some b ->
        let exempt =
          match (a, b) with
          | Timeout, _ | _, Timeout | Fault _, _ | _, Fault _ -> true
          | _ -> false
        in
        if (not exempt) && not (outcome_equal a b) then
          fail "%s: opt none %s, opt checks %s"
            (name ~opt:`None " vs opt:checks")
            (outcome_to_string a) (outcome_to_string b)
    | _ -> ()
  end;
  (* host oracle: under full checking the machine models exactly the
     checked semantics the reference interpreter implements — except
     that the machine's heap is bounded and the host's is not.  So a
     heap overflow at [Gen.sizes] that disagrees with the host is
     re-run with [roomy] semispaces, and that outcome must agree.  The
     machine's stack is bounded too, and the host's recursion only ends
     when its fuel does, so a stack overflow is not compared. *)
  if !diverged = None && support.Support.runtime_checking then begin
    match List.assoc_opt `None !level_outcome with
    | Some ((Value _ | Abort _) as machine)
      when machine <> Abort "stack overflow" -> (
        let host =
          match Oracle.run ~scheme source with
          | Oracle.Value v -> Some (Value (Oracle.to_string v))
          | Oracle.Error "out of fuel" ->
              (* the host interpreter's step budget is not
                 cycle-accurate; no comparison possible *)
              None
          | Oracle.Error e -> Some (Abort e)
          | exception Expand.Error _ -> None
          | exception Sexp.Parse_error _ -> None
        in
        match host with
        | Some host when not (outcome_equal machine host) ->
            let machine, extra =
              if machine <> Abort "heap overflow" then (machine, "")
              else
                ( roomy_outcome ~fuel m ~scheme ~support source,
                  Fmt.str " (semispace %d)" roomy.Layout.semi_bytes )
            in
            if not (outcome_equal machine host) then
              fail "%s: machine %s, host oracle %s" (name ~opt:`None extra)
                (outcome_to_string machine) (outcome_to_string host)
        | _ -> ())
    | _ ->
        (* compile rejections (expression depth), timeouts, stack
           overflows and wild faults have no host counterpart *)
        ()
  end;
  (!diverged, !ran)

let check ?(fuel = 40_000_000) m source : verdict =
  let any_ran = ref false in
  let rec cells = function
    | [] -> if !any_ran then Agree else Rejected
    | (scheme, support) :: rest -> (
        match check_cell ~fuel m ~scheme ~support source with
        | Some detail, _ ->
            Diverge { d_scheme = scheme; d_support = support; d_detail = detail }
        | None, ran ->
            if ran then any_ran := true;
            cells rest)
  in
  cells m.m_pairs
