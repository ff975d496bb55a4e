"""The flight recorder, under its obs-side name: it lives in
:mod:`repro.soc.flight`, beside the machine that carries it."""

from repro.soc.flight import (DEFAULT_RING_SIZE, FLIGHT_FIELDS,
                              FlightEvent, FlightRecorder, event_to_dict)
