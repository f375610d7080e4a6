(** Wall-clock phase accounting for the measurement pipeline.

    The driver's work divides into three phases — compiling benchmark
    programs, simulating them, and rendering artifacts from the
    measurement store — and the cache layer's whole point is to move
    time out of the first two.  Workers on any domain accumulate into
    the shared totals (mutex-protected; the amounts are seconds-coarse,
    so one lock is irrelevant), and the CLI prints the totals under
    [--verbose] so the effect of a warm cache is observable. *)

type phase = Compile | Simulate | Render

let now () = Unix.gettimeofday ()

let mutex = Mutex.create ()
let compile_s = ref 0.0
let simulate_s = ref 0.0
let render_s = ref 0.0

let slot = function
  | Compile -> compile_s
  | Simulate -> simulate_s
  | Render -> render_s

let add phase dt =
  Mutex.protect mutex (fun () ->
      let r = slot phase in
      r := !r +. dt)

let time phase f =
  let t0 = now () in
  Fun.protect ~finally:(fun () -> add phase (now () -. t0)) f

(** [(compile, simulate, render)] seconds accumulated since start or the
    last {!reset}. *)
let totals () =
  Mutex.protect mutex (fun () -> (!compile_s, !simulate_s, !render_s))

(** The backend's internal breakdown of the [Compile] phase — monolithic
    codegen, incremental lower/opt/select, per-unit scheduling,
    monolithic assembly, incremental linking — re-exported from the
    compiler layer's accumulator so CLI reporting has a single
    instrumentation entry point. *)
let backend_totals () = Tagsim_compiler.Bphase.totals ()

(** The traced engine's tier-2 counters — traces formed, trace entries,
    side exits, instructions retired inside traces, total retired, and
    the time and words spent forming traces —
    re-exported from the simulator layer so CLI reporting has a single
    instrumentation entry point. *)
let trace_totals () = Tagsim_sim.Machine.trace_counters ()

let reset () =
  Mutex.protect mutex (fun () ->
      compile_s := 0.0;
      simulate_s := 0.0;
      render_s := 0.0);
  Tagsim_compiler.Bphase.reset ();
  Tagsim_sim.Machine.reset_trace_counters ()
