"""Verifiable retention enforcement for outsourced sensor data.

A provider batches sensor readings into epochs, gives every epoch a
chained cryptographic timestamp, encrypts the readings, and outsources
them together with sealed verifiable tags. The cloud must delete each
epoch on schedule by running an overwrite transform whose output proof
any third party can check against the provider's tag, under a time
bound meant to catch proofs fabricated on demand (the transform as
written has a shortcut: see the engine module). Query
activity at the service provider is chained into tamper-evident,
auditable blocks.

The package top exports nothing and imports nothing: import each name
from the module that defines it, so a role loads only the modules it
uses.
"""
