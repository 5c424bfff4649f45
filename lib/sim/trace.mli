(** Structured simulation trace: timestamped, categorised log entries that
    experiments turn into narrative output and tests assert on. *)

type entry = { time : float; category : string; message : string }

type t

(** [create ?capacity ()] makes an empty trace. With [capacity] the trace
    is a ring keeping only the newest [capacity] entries (long plant
    deployments stay bounded); without it the trace grows as needed.
    Raises [Invalid_argument] on a non-positive capacity. *)
val create : ?capacity:int -> unit -> t

(** [record t ~time ~category fmt ...] appends a formatted entry. *)
val record : t -> time:float -> category:string -> ('a, Format.formatter, unit, unit) format4 -> 'a

(** Retained entries in chronological order (the newest [capacity] when
    bounded). *)
val entries : t -> entry list

(** Total entries ever recorded, including any evicted from a bounded
    ring. *)
val length : t -> int

(** Entries currently held (= [length] unless a bounded ring evicted). *)
val retained : t -> int

(** Retained entries in one category, chronological. *)
val by_category : t -> string -> entry list

(** First retained entry in [category] whose message contains
    [contains]. *)
val find : t -> category:string -> contains:string -> entry option
