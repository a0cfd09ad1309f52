(** Jade: a portable, implicitly parallel tasking runtime with automatic
    communication optimizations, reproducing Rinard's SC '95 system.

    Programs are written against {!Runtime} (tasks, shared objects, access
    specifications) and executed on a simulated shared-memory machine
    (Stanford DASH) or message-passing machine (Intel iPSC/860); the
    runtime applies replication, locality scheduling, adaptive broadcast,
    concurrent fetches and latency hiding per {!Config}. *)

module Access = Access
module Config = Config
module Meta = Meta
module Names = Names
module Shared = Shared
module Spec = Spec
module Taskrec = Taskrec
module Synchronizer = Synchronizer
module Scheduler_shm = Scheduler_shm
module Scheduler_mp = Scheduler_mp
module Shm_model = Shm_model
module Protocol = Protocol
module Communicator = Communicator
module Metrics = Metrics
module Tracing = Tracing
module Recovery = Recovery
module Backend = Backend
module Backend_shm = Backend_shm
module Backend_mp = Backend_mp
module Runtime = Runtime
