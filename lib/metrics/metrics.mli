(** The process-wide registry of named counters and timers, safe across
    domains: every count and time the run summary reports lives here.
    A timer is a counter of integer nanoseconds.  Take handles once, at
    module initialisation, never on a hot path. *)

type t

(** The counter registered under [name], registering it (at 0) on first
    use: every module that names a counter shares the one handle. *)
val counter : string -> t

val add : t -> int -> unit
val get : t -> int

(** A timer's nanoseconds, in seconds. *)
val seconds : t -> float

(** Run [f] and add its wall-clock nanoseconds to the timer (also when
    [f] raises). *)
val time : t -> (unit -> 'a) -> 'a

(** Every registered counter's name and value, in registration order. *)
val snapshot : unit -> (string * int) list

(** Zero every registered counter. *)
val reset : unit -> unit
