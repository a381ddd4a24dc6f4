"""Firefighter-process toolkit for embedded planar graphs."""

from .embedding import EmbeddedGraph, Face, build
from .families import FamilySpec, generate

__all__ = [
    "EmbeddedGraph",
    "Face",
    "build",
    "FamilySpec",
    "generate",
]
